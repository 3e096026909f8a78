// Serving anonymized releases over HTTP (the src/net/ subsystem): an
// Agrawal record stream is POSTed to /ingest in NDJSON batches while a
// reader periodically fetches multigranular releases from
// /release/query — the serving pattern of the paper's incremental
// setting, here end-to-end over real sockets.
//
//   $ ./build/examples/http_serving            # self-contained loopback
//   $ ./build/examples/http_serving HOST:PORT  # against a running server
//
// Without an argument the example starts the full stack in-process on an
// ephemeral loopback port (always runs offline). With one, point it at a
// `kanon_cli serve --listen` instance.

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "data/agrawal_generator.h"
#include "net/anon_http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "shard/sharded_service.h"

int main(int argc, char** argv) {
  using namespace kanon;

  constexpr size_t kRecords = 20000;
  constexpr size_t kBatch = 100;
  constexpr size_t kBaseK = 10;

  // --- A local stack unless a server address was given -------------------
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::unique_ptr<ShardedAnonymizationService> service;
  std::unique_ptr<net::AnonHttpFrontend> frontend;
  std::unique_ptr<net::HttpServer> server;
  if (argc > 1) {
    const std::string spec = argv[1];
    const size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "usage: http_serving [HOST:PORT]\n";
      return 2;
    }
    host = spec.substr(0, colon);
    port = static_cast<uint16_t>(
        std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
  } else {
    const Dataset sample = AgrawalGenerator(1).Generate(1000);
    ShardedServiceOptions options;
    options.service.anonymizer.base_k = kBaseK;
    options.service.snapshot_every = 2000;  // republish every 2000 inserts
    options.sharding.num_shards = 2;  // hash-routed two-shard stack
    auto service_or = ShardedAnonymizationService::Create(
        sample.dim(), sample.ComputeDomain(), options);
    if (!service_or.ok()) {
      std::cerr << service_or.status() << "\n";
      return 1;
    }
    service = std::move(*service_or);
    frontend = std::make_unique<net::AnonHttpFrontend>(service.get());
    net::HttpServerOptions http_options;
    http_options.port = 0;  // ephemeral
    server = std::make_unique<net::HttpServer>(
        http_options, [f = frontend.get()](const net::HttpRequest& request) {
          return f->Handle(request);
        });
    if (auto s = server->Start(); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    port = server->bound_port();
    std::cout << "started local 2-shard server on 127.0.0.1:" << port
              << " (epoll)\n";
  }

  net::HttpClient writer;
  net::HttpClient reader;
  if (auto s = writer.Connect(host, port); !s.ok()) {
    std::cerr << "connect: " << s << "\n";
    return 1;
  }
  if (auto s = reader.Connect(host, port); !s.ok()) {
    std::cerr << "connect: " << s << "\n";
    return 1;
  }

  // --- Stream the Agrawal generator through POST /ingest -----------------
  const Dataset data = AgrawalGenerator(42).Generate(kRecords);
  std::cout << "streaming " << kRecords << " Agrawal records in batches of "
            << kBatch << "...\n";
  size_t sent = 0;
  while (sent < kRecords) {
    std::string body;
    const size_t n = std::min(kBatch, kRecords - sent);
    for (size_t i = 0; i < n; ++i) {
      const auto row = data.row(sent + i);
      for (size_t d = 0; d < row.size(); ++d) {
        if (d != 0) body += ',';
        body += std::to_string(row[d]);
      }
      body += ',' + std::to_string(data.sensitive(sent + i)) + '\n';
    }
    auto resp = writer.Post("/ingest", body);
    if (!resp.ok()) {
      std::cerr << "ingest: " << resp.status() << "\n";
      return 1;
    }
    if (resp->status != 200) {
      // 429 (burst against a full queue) and 503 (degraded) are protocol
      // answers, not transport errors; a production client would back off
      // per Retry-After. The example just reports and stops.
      std::cerr << "ingest answered " << resp->status << ": " << resp->body
                << "\n";
      return 1;
    }
    sent += n;

    // Every ~quarter of the stream, read back coarser releases: one
    // snapshot serves every granularity k1 >= base_k (multigranular
    // releases stay jointly safe, paper Lemma 1).
    if (sent % (kRecords / 4) == 0) {
      std::cout << "after " << sent << " records:\n";
      for (const size_t k1 : {kBaseK, kBaseK * 5, kBaseK * 25}) {
        auto rel = reader.Get("/release/query?k1=" + std::to_string(k1) +
                              "&summary=1");
        if (!rel.ok()) {
          std::cerr << "release: " << rel.status() << "\n";
          return 1;
        }
        if (rel->status == 503) {
          std::cout << "  k1=" << k1 << ": no snapshot yet (503)\n";
          continue;
        }
        std::cout << "  k1=" << k1 << ": " << rel->body << "\n";
      }
    }
  }

  // --- Health and metrics, then shut down --------------------------------
  if (auto health = reader.Get("/healthz"); health.ok()) {
    std::cout << "healthz: " << health->body << "\n";
  }
  if (auto metrics = reader.Get("/metrics"); metrics.ok()) {
    std::cout << "metrics: " << metrics->body.size()
              << " bytes of Prometheus text exposition\n";
  }
  if (server != nullptr) {
    server->Shutdown();
    service->Stop();
    const auto stitched = service->CurrentStitched();
    std::cout << "drained; final stitched snapshot records="
              << (stitched != nullptr ? stitched->info().records : 0)
              << " (accepted over HTTP: " << frontend->accepted() << ")\n";
  }
  return 0;
}
