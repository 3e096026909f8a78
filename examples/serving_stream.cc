// Concurrent anonymization serving (src/service/): several producer
// threads stream orders into an AnonymizationService while a reader
// repeatedly pulls k-anonymous releases from published snapshots. The
// readers never touch the live index — each release is computed from an
// immutable snapshot swapped in atomically by the ingest thread — so
// GetRelease latency does not depend on the ingest rate.
//
//   $ ./build/examples/serving_stream

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "kanon/kanon.h"

int main() {
  using namespace kanon;

  const size_t records = 30000;
  const size_t producers = 4;
  const size_t k = 10;

  const Dataset stream = LandsEndGenerator(33).Generate(records);
  const Domain domain = stream.ComputeDomain();

  ServiceOptions options;
  options.anonymizer.base_k = k;
  options.queue_capacity = 1024;
  options.max_batch = 128;
  options.snapshot_every = 5000;  // republish every 5000 inserts
  AnonymizationService service(stream.dim(), domain, options);

  std::cout << "Streaming " << records << " orders from " << producers
            << " producer threads; base k = " << k << "\n\n";

  // Each producer owns a stripe of the stream; the service assigns record
  // ids itself, so producers just push points.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = t; r < records; r += producers) {
        if (!service.Ingest(stream.row(r), stream.sensitive(r)).ok()) return;
      }
    });
  }

  // Meanwhile a reader watches snapshots appear. Release(k1) is served
  // from frozen leaves, concurrent with ingest.
  uint64_t last_epoch = 0;
  while (service.inserted() < records) {
    if (auto snapshot = service.CurrentSnapshot();
        snapshot && snapshot->info().epoch != last_epoch) {
      last_epoch = snapshot->info().epoch;
      std::cout << "snapshot " << last_epoch << ": records="
                << snapshot->info().records << " build="
                << snapshot->info().build_ms << "ms\n";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& thread : threads) thread.join();
  service.Stop();  // drains the queue and publishes a final snapshot

  const auto final_snapshot = service.CurrentSnapshot();
  if (final_snapshot == nullptr ||
      final_snapshot->info().records != records) {
    std::cerr << "final snapshot incomplete\n";
    return 1;
  }

  // The same snapshot serves multiple granularities; by the paper's
  // Lemma 1 the combined releases stay k-anonymous.
  std::cout << "\nFinal snapshot (epoch " << final_snapshot->info().epoch
            << ", " << final_snapshot->info().records << " records):\n";
  for (size_t k1 : {k, 5 * k, 25 * k}) {
    const PartitionSet release = final_snapshot->Release(k1);
    if (auto s = release.CheckKAnonymous(k1); !s.ok()) {
      std::cerr << "release not anonymous: " << s << "\n";
      return 1;
    }
    std::cout << "  k1=" << k1 << ": partitions="
              << release.num_partitions() << " avgNCP="
              << AverageBoxNcp(release, domain) << "\n";
  }

  std::cout << "\n" << FormatServiceStats(service.Stats()) << "\n";
  return 0;
}
