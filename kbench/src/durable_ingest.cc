// durable_ingest: the serving scenario with the WAL on. Two closed-loop
// keep-alive producers POST 50-record CSV batches to /ingest while one
// closed-loop poller reads /release/query?k1=10&summary=1. A POST's records
// count as visible at the first poll response, received after its ack, whose
// `records` covers the acknowledged count taken at that ack. Publish() syncs
// the WAL first, so visible also means durable.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "anon/rtree_anonymizer.h"
#include "data/landsend_generator.h"
#include "durability/wal.h"
#include "net/http_client.h"
#include "workloads.h"

namespace kbench {
namespace {

using kanon::Dataset;
using kanon::Domain;

constexpr size_t kBatch = 50;
constexpr size_t kProducers = 2;
constexpr size_t kPreload = 100000;
constexpr size_t kSetups = 9;
/// Stream records generated up front: more than a 25 s window and its drain
/// take at today's rates. Producers cycle through them, so a faster stack
/// re-sends old records instead of running dry.
constexpr size_t kStreamRecords = 1500000;
constexpr double kDrainTimeoutMs = 60000.0;
/// Layer replays: groups of 256 records, matching fsync_every.
constexpr size_t kReplayGroup = 256;
constexpr size_t kReplayGroups = 100;

struct Inputs {
  Dataset preload;
  Dataset replay;                   // the first stream records, for replays
  std::vector<std::string> bodies;  // the stream, kBatch records per POST
  Domain domain;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in{GenerateRecords(seed, kPreload),
            Dataset(kanon::LandsEndGenerator::MakeSchema()),
            {},
            LandsEndDomain()};
  // Stream chunks use generator offsets far from the preload's.
  const kanon::LandsEndGenerator gen(seed);
  constexpr size_t kChunk = 50000;
  constexpr uint64_t kStreamOffset = 1000;
  in.bodies.reserve(kStreamRecords / kBatch);
  for (size_t c = 0; c * kChunk < kStreamRecords; ++c) {
    Dataset chunk(kanon::LandsEndGenerator::MakeSchema());
    gen.AppendTo(&chunk, kChunk, kStreamOffset + c);
    for (size_t r = 0; r < kChunk; r += kBatch) {
      in.bodies.push_back(CsvLines(chunk, r, r + kBatch));
    }
    if (c == 0) in.replay = chunk.Slice(0, kReplayGroup * kReplayGroups);
  }
  return in;
}

struct PostSample {
  double t_send = 0.0;
  double t_ack = 0.0;
  uint64_t acked = 0;  // stream records acknowledged, counted at this ack
};

struct Poll {
  double t_recv = 0.0;
  uint64_t records = 0;
};

/// End-to-end numbers of one pass, plus the service and listener counters
/// over its window.
struct Pass {
  Metrics e2e;
  double visible_rec_per_s = 0.0;
  std::vector<double> visible_ms;
  std::vector<double> ack_ms;
  std::vector<double> poll_ms;
  kanon::ServiceStats before, after;
  kanon::net::HttpServerStats http_before, http_after;
};

void FetchAddMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load();
  while (cur < value && !target->compare_exchange_weak(cur, value)) {
  }
}

/// Starts the stack with the WAL on and preloads kPreload records through
/// the service's own Ingest, then publishes. Returns the set-up time.
kanon::StatusOr<std::unique_ptr<Stack>> SetUp(const Inputs& in,
                                              const std::string& wal_dir,
                                              Tracer* tracer, double* seconds) {
  const double t0 = NowMs();
  KANON_ASSIGN_OR_RETURN(
      auto stack,
      StartStack(in.preload.dim(), in.domain, ServeDefaults(wal_dir), tracer));
  for (size_t r = 0; r < in.preload.num_records(); ++r) {
    KANON_RETURN_IF_ERROR(
        stack->service->Ingest(in.preload.row(r), in.preload.sensitive(r)));
  }
  const auto published = stack->service->PublishNow();
  *seconds = (NowMs() - t0) / 1000.0;
  if (published == nullptr || published->info().records != kPreload) {
    return kanon::Status::Internal("preload did not publish every record");
  }
  return stack;
}

Pass RunPass(const Inputs& in, const Config& config, Tracer* tracer,
             size_t setups, Outcome* out) {
  Pass pass;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (size_t i = 0; i < setups; ++i) {
    if (stack != nullptr) stack->Stop();
    stack.reset();
    const std::string wal_dir =
        config.scratch + "/durable-wal-" + std::to_string(i);
    std::filesystem::remove_all(wal_dir);
    double seconds = 0.0;
    auto made = SetUp(in, wal_dir, tracer, &seconds);
    if (!made.ok()) {
      out->FailCheck("set-up: " + made.status().ToString());
      return pass;
    }
    stack = std::move(*made);
    setup_s.push_back(seconds);
  }
  pass.e2e.Set("setup_s", Median(setup_s), "s");
  const uint16_t port = stack->http->bound_port();

  std::atomic<size_t> next_body{0};
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> acked_before_deadline{0};
  std::atomic<size_t> producers_past_deadline{0};
  std::atomic<bool> stop_producers{false};
  std::atomic<bool> stop_poller{false};
  std::atomic<uint64_t> latest_records{0};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> errors;
  std::vector<PostSample> posts;
  std::vector<Poll> polls;
  std::vector<double> poll_ms;
  double first_send = 0.0;
  double last_pre_deadline_ack = 0.0;

  pass.before = stack->service->Stats().total;
  pass.http_before = stack->http->stats();
  const double start = NowMs();
  const double deadline = start + config.seconds * 1000.0;
  auto note_error = [&](const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 5) errors.push_back(what);
  };

  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      kanon::net::HttpClient client;
      std::vector<PostSample> mine;
      bool past = false;
      double mine_first = 0.0;
      double mine_last_ack = 0.0;
      if (auto s = client.Connect("127.0.0.1", port); !s.ok()) {
        note_error("producer connect: " + s.ToString());
      } else {
        while (!stop_producers.load(std::memory_order_relaxed)) {
          const size_t i = next_body.fetch_add(1) % in.bodies.size();
          const uint64_t rid = tracer != nullptr ? tracer->NextId() : 0;
          const double t_send = NowMs();
          if (t_send >= deadline && !past) {
            past = true;  // every pre-deadline POST of this producer is done
            producers_past_deadline.fetch_add(1);
          }
          auto resp = client.Post(TracedTarget("/ingest", rid), in.bodies[i]);
          const double t_ack = NowMs();
          attempted.fetch_add(1);
          if (tracer != nullptr) {
            tracer->Record({"client.ingest", t_send, t_ack, rid, 0, rid});
          }
          if (!resp.ok() || resp->status != 200) {
            note_error(resp.ok() ? "ingest HTTP " + std::to_string(resp->status)
                                 : "ingest: " + resp.status().ToString());
            if (!resp.ok()) break;
            continue;
          }
          const uint64_t count = acked.fetch_add(kBatch) + kBatch;
          if (!past) {
            if (mine.empty()) mine_first = t_send;
            mine.push_back({t_send, t_ack, count});
            mine_last_ack = t_ack;
            FetchAddMax(&acked_before_deadline, count);
          }
        }
      }
      if (!past) producers_past_deadline.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      if (!mine.empty() && (first_send == 0.0 || mine_first < first_send)) {
        first_send = mine_first;
      }
      last_pre_deadline_ack = std::max(last_pre_deadline_ack, mine_last_ack);
      posts.insert(posts.end(), mine.begin(), mine.end());
    });
  }
  threads.emplace_back([&] {
    kanon::net::HttpClient client;
    if (auto s = client.Connect("127.0.0.1", port); !s.ok()) {
      note_error("poller connect: " + s.ToString());
      return;
    }
    const std::string target = "/release/query?k1=10&summary=1";
    std::vector<Poll> mine;
    std::vector<double> lat;
    while (!stop_poller.load(std::memory_order_relaxed)) {
      const uint64_t rid = tracer != nullptr ? tracer->NextId() : 0;
      const double t0 = NowMs();
      auto resp = client.Get(TracedTarget(target, rid));
      const double t1 = NowMs();
      attempted.fetch_add(1);
      if (tracer != nullptr) {
        tracer->Record({"client.release", t0, t1, rid, 0, rid});
      }
      if (!resp.ok() || resp->status != 200) {
        note_error(resp.ok() ? "poll HTTP " + std::to_string(resp->status)
                             : "poll: " + resp.status().ToString());
        if (!resp.ok()) break;
        continue;
      }
      const auto records = static_cast<uint64_t>(JsonNumber(resp->body, "records"));
      // The summary's smallest partition is the k check a summary allows.
      if (JsonNumber(resp->body, "min_partition") < kK) {
        note_error("poll release violates k=10: " + resp->body);
      }
      mine.push_back({t1, records});
      if (t0 < deadline) lat.push_back(t1 - t0);
      latest_records.store(records);
    }
    std::lock_guard<std::mutex> lock(mu);
    polls = std::move(mine);
    poll_ms = std::move(lat);
  });

  // Drain: once every producer is past the deadline, keep the load on until
  // a poll shows a release covering every record acknowledged before it.
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(deadline - NowMs()));
  auto wait_for = [&](auto done) {
    while (!done() && NowMs() < deadline + kDrainTimeoutMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  const bool drained =
      wait_for([&] { return producers_past_deadline.load() == kProducers; }) &&
      wait_for([&] {
        return latest_records.load() >= kPreload + acked_before_deadline.load();
      });
  stop_producers.store(true);
  for (size_t p = 0; p < kProducers; ++p) threads[p].join();
  stop_poller.store(true);
  threads.back().join();
  if (!drained) note_error("no release covered the acknowledged records");

  pass.after = stack->service->Stats().total;
  pass.http_after = stack->http->stats();

  // One full download before shutdown: its partition list must be k-bound.
  {
    kanon::net::HttpClient client;
    attempted.fetch_add(1);
    auto resp = client.Connect("127.0.0.1", port).ok()
                    ? client.Get("/release/query?k1=10")
                    : kanon::StatusOr<kanon::net::ClientResponse>(
                          kanon::Status::IoError("connect"));
    if (!resp.ok() || resp->status != 200) {
      note_error("final download failed");
    } else {
      const kanon::PartitionSet got = PartitionsFromBody(resp->body);
      if (!got.CheckKAnonymous(kK).ok() || got.num_partitions() == 0 ||
          got.num_partitions() !=
              static_cast<size_t>(JsonNumber(resp->body, "num_partitions"))) {
        out->FailCheck("downloaded release is not 10-anonymous");
      }
    }
  }

  stack->Stop();
  const auto final_view = stack->service->CurrentStitched();
  const uint64_t total_acked = acked.load();
  if (final_view == nullptr ||
      final_view->info().records != kPreload + total_acked ||
      stack->frontend->accepted() != total_acked) {
    out->FailCheck("final release does not cover exactly the acknowledged "
                   "records");
  }
  out->attempted += attempted.load();
  out->failed += failed.load();
  for (const std::string& e : errors) out->errors.push_back(e);

  // Visibility per pre-deadline POST: the first poll received after its
  // ack whose records cover the acknowledged count at that ack.
  auto visible_at = [&](double t_ack, uint64_t count) -> double {
    const auto by_time = std::partition_point(
        polls.begin(), polls.end(),
        [&](const Poll& p) { return p.t_recv < t_ack; });
    const auto by_records = std::partition_point(
        polls.begin(), polls.end(),
        [&](const Poll& p) { return p.records < kPreload + count; });
    const auto it = std::max(by_time, by_records);
    return it == polls.end() ? -1.0 : it->t_recv;
  };
  for (const PostSample& s : posts) {
    pass.ack_ms.push_back(s.t_ack - s.t_send);
    const double t = visible_at(s.t_ack, s.acked);
    if (t >= 0.0) pass.visible_ms.push_back(t - s.t_send);
  }
  const double all_visible =
      visible_at(last_pre_deadline_ack, acked_before_deadline.load());
  if (all_visible > first_send && first_send > 0.0) {
    pass.visible_rec_per_s = static_cast<double>(acked_before_deadline.load()) /
                             ((all_visible - first_send) / 1000.0);
  }
  pass.poll_ms = poll_ms;
  pass.e2e.Set("throughput_per_s", pass.visible_rec_per_s, "1/s");
  pass.e2e.Set("latency_p50_ms", Percentile(pass.visible_ms, 50), "ms");
  // p95, not p99: the top 1% are POSTs queued behind checkpoint fsyncs on
  // a shared disk, which moved p99 by up to 18% between identical runs.
  pass.e2e.Set("latency_tail_ms", Percentile(pass.visible_ms, 95), "ms");

  if (final_view != nullptr) {
    const kanon::PartitionSet base = final_view->Release(kK);
    if (!base.CheckKAnonymous(kK).ok()) {
      out->FailCheck("final base release is not 10-anonymous");
    }
    pass.e2e.Set("ncp", kanon::AverageBoxNcp(base, in.domain), "ratio");
    out->layer.Set("anon.partitions", static_cast<double>(base.num_partitions()),
                   "count");
  }
  stack.reset();
  for (size_t i = 0; i < setups; ++i) {
    std::filesystem::remove_all(config.scratch + "/durable-wal-" +
                                std::to_string(i));
  }
  out->detail.Set("streamed_records",
                  static_cast<double>(acked_before_deadline.load()), "count");
  out->detail.Set("visible_samples", static_cast<double>(pass.visible_ms.size()),
                  "count");
  return pass;
}

/// Feeds the pass's own records straight into the layers that run inside
/// the service's ingest thread, so their cost shows per call.
void Replays(const Inputs& in, const Config& config, Tracer* tracer,
             Outcome* out) {
  const size_t dim = in.preload.dim();
  // durability: WalWriter::Append in groups of 256, then one Sync each.
  const std::string wal_dir = config.scratch + "/replay-wal";
  std::filesystem::remove_all(wal_dir);
  kanon::WalOptions wal_options;
  wal_options.fsync_every = 0;  // the replay syncs once per group itself
  auto wal = kanon::WalWriter::Open(wal_dir, dim, 1, wal_options);
  if (!wal.ok()) {
    out->FailCheck("wal replay: " + wal.status().ToString());
    return;
  }
  std::vector<double> append_us, sync_ms;
  uint64_t lsn = 1;
  for (size_t g = 0; g < kReplayGroups; ++g) {
    const double t0 = NowMs();
    {
      ScopedSpan span(tracer, "durability.wal_append");
      for (size_t i = 0; i < kReplayGroup; ++i, ++lsn) {
        const size_t r = g * kReplayGroup + i;
        if (!(*wal)->Append(lsn, in.replay.row(r), in.replay.sensitive(r)).ok()) {
          out->FailCheck("wal replay append failed");
          return;
        }
      }
    }
    const double t1 = NowMs();
    {
      ScopedSpan span(tracer, "durability.wal_sync");
      if (!(*wal)->Sync().ok()) {
        out->FailCheck("wal replay sync failed");
        return;
      }
    }
    append_us.push_back((t1 - t0) * 1000.0 / kReplayGroup);
    sync_ms.push_back(NowMs() - t1);
  }
  wal->reset();
  std::filesystem::remove_all(wal_dir);
  out->layer.Set("durability.append_us", Median(append_us), "us");
  out->layer.Set("durability.sync_ms", Median(sync_ms), "ms");

  // index: IncrementalAnonymizer::Insert at the preloaded tree size.
  kanon::IncrementalAnonymizer anonymizer(
      dim, ServeDefaults("").service.anonymizer, &in.domain);
  for (size_t r = 0; r < in.preload.num_records(); ++r) {
    anonymizer.Insert(in.preload.row(r), r, in.preload.sensitive(r));
  }
  std::vector<double> insert_us;
  for (size_t g = 0; g < kReplayGroups; ++g) {
    const double t0 = NowMs();
    ScopedSpan span(tracer, "index.insert");
    for (size_t i = 0; i < kReplayGroup; ++i) {
      const size_t r = g * kReplayGroup + i;
      anonymizer.Insert(in.replay.row(r), kPreload + r, in.replay.sensitive(r));
    }
    insert_us.push_back((NowMs() - t0) * 1000.0 / kReplayGroup);
  }
  out->layer.Set("index.insert_us", Median(insert_us), "us");

  // anon: the leaf extraction every publication starts from.
  std::vector<double> extract_ms;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = NowMs();
    ScopedSpan span(tracer, "anon.leaf_extract");
    const auto leaves = kanon::ExtractLeafGroups(anonymizer.tree(), &in.domain);
    extract_ms.push_back(NowMs() - t0);
    if (leaves.empty()) out->FailCheck("leaf extraction returned no leaves");
  }
  out->layer.Set("anon.leaf_extract_ms", Median(extract_ms), "ms");
}

void ReportLayers(const Pass& pass, const std::vector<Span>& spans,
                  Outcome* out) {
  const kanon::ServiceStats& a = pass.before;
  const kanon::ServiceStats& b = pass.after;
  const double inserted = static_cast<double>(b.inserted - a.inserted);
  const double batches = static_cast<double>(b.batches - a.batches);
  const double apply_ms = b.apply_ms - a.apply_ms;
  const double publish_ms = b.snapshot_build_ms_total - a.snapshot_build_ms_total;
  const double snapshots = static_cast<double>(b.snapshots - a.snapshots);
  const double appended = static_cast<double>(b.wal_appended - a.wal_appended);
  const double syncs = static_cast<double>(b.wal_syncs - a.wal_syncs);
  auto ratio = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };
  Metrics& m = out->layer;
  m.Set("net.ingest_handler_p50_ms",
        Median(SpanDurations(spans, "net.ingest_handler")), "ms");
  const auto rtt = SpanDurations(spans, "client.ingest");
  m.Set("net.ingest_rtt_p50_ms", Percentile(rtt, 50), "ms");
  m.Set("net.ingest_rtt_p99_ms", Percentile(rtt, 99), "ms");
  m.Set("net.ingest_transport_p50_ms",
        Median(OutsideChild(spans, "client.ingest", "net.ingest_handler")),
        "ms");
  const auto release = SpanDurations(spans, "client.release");
  m.Set("net.release_rtt_p50_ms", Percentile(release, 50), "ms");
  m.Set("net.release_rtt_p99_ms", Percentile(release, 99), "ms");
  m.Set("net.release_handler_p50_ms",
        Median(SpanDurations(spans, "net.release_handler")), "ms");
  m.Set("net.release_transport_p50_ms",
        Median(OutsideChild(spans, "client.release", "net.release_handler")),
        "ms");
  m.Set("net.requests",
        static_cast<double>(pass.http_after.requests - pass.http_before.requests),
        "count");
  m.Set("net.parse_errors",
        static_cast<double>(pass.http_after.parse_errors -
                            pass.http_before.parse_errors),
        "count");
  m.Set("service.apply_us_per_record", ratio(apply_ms * 1000.0, inserted), "us");
  m.Set("service.mean_batch", ratio(inserted, batches), "records");
  m.Set("service.queue_wait_ms_per_batch",
        ratio(b.queue_wait_ms - a.queue_wait_ms, batches), "ms");
  m.Set("service.publish_ms", ratio(publish_ms, snapshots), "ms");
  m.Set("service.publish_share", ratio(publish_ms, apply_ms + publish_ms),
        "ratio");
  m.Set("service.snapshots", snapshots, "count");
  m.Set("durability.wal_syncs", syncs, "count");
  m.Set("durability.records_per_sync", ratio(appended, syncs), "records");
  m.Set("durability.wal_bytes_per_record",
        ratio(static_cast<double>(b.wal_bytes - a.wal_bytes), appended),
        "bytes");
  m.Set("durability.checkpoints",
        static_cast<double>(b.checkpoints - a.checkpoints), "count");
}

}  // namespace

Outcome RunDurableIngest(const Config& config) {
  Outcome out;
  const Inputs in = MakeInputs(config.seed);
  Pass plain = RunPass(in, config, nullptr, kSetups, &out);
  plain.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.e2e = plain.e2e;
  out.detail.Set("visible_rec_per_s", plain.visible_rec_per_s, "rec/s");
  out.detail.Set("visible_p50_ms", Percentile(plain.visible_ms, 50), "ms");
  out.detail.Set("visible_p95_ms", Percentile(plain.visible_ms, 95), "ms");
  out.detail.Set("visible_p99_ms", Percentile(plain.visible_ms, 99), "ms");
  out.detail.Set("release_p50_ms", Percentile(plain.poll_ms, 50), "ms");
  out.detail.Set("release_p99_ms", Percentile(plain.poll_ms, 99), "ms");
  out.detail.Set("ack_p50_ms", Percentile(plain.ack_ms, 50), "ms");
  out.detail.Set("release_samples", static_cast<double>(plain.poll_ms.size()),
                 "count");
  if (config.trace) {
    Tracer tracer;
    const Pass traced = RunPass(in, config, &tracer, 1, &out);
    Replays(in, config, &tracer, &out);
    const std::vector<Span> spans = tracer.spans();
    ReportLayers(traced, spans, &out);
    ReportTrace(spans, plain.e2e, traced.e2e, &out);
    tracer.WriteJsonl(config.scratch + "/trace-durable_ingest-" +
                      std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace kbench
