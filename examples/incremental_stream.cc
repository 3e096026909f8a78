// Incremental anonymization of a record stream (paper Section 2.2): a
// growing table of customer orders stays k-anonymous under continuous
// inserts, publishing after every batch without ever re-anonymizing from
// scratch.
//
//   $ ./build/examples/incremental_stream

#include <iostream>

#include "kanon/kanon.h"

int main() {
  using namespace kanon;

  const size_t batch = 5000;
  const size_t num_batches = 6;
  const size_t k = 10;

  const Dataset stream = LandsEndGenerator(21).Generate(batch * num_batches);
  // A domain hint (available from schema metadata in practice) normalizes
  // split decisions across attributes of very different scales.
  const Domain domain = stream.ComputeDomain();
  IncrementalAnonymizer anonymizer(stream.dim(), {}, &domain);

  std::cout << "Streaming " << num_batches << " batches of " << batch
            << " orders; k = " << k << "\n\n";

  for (size_t b = 0; b < num_batches; ++b) {
    Timer timer;
    anonymizer.InsertBatch(stream, b * batch, (b + 1) * batch);
    const double insert_ms = timer.ElapsedMillis();

    timer.Restart();
    const PartitionSet view = anonymizer.Snapshot(stream, k);
    const double publish_ms = timer.ElapsedMillis();
    if (auto s = view.CheckKAnonymous(k); !s.ok()) {
      std::cerr << "published view not anonymous: " << s << "\n";
      return 1;
    }

    std::cout << "batch " << (b + 1) << ": records=" << anonymizer.size()
              << " insert=" << insert_ms << "ms publish=" << publish_ms
              << "ms  avgNCP=" << AverageNcp(stream, view)
              << " partitions=" << view.num_partitions() << "\n";
  }

  if (auto s = anonymizer.tree().CheckInvariants(); !s.ok()) {
    std::cerr << "tree invariants broken: " << s << "\n";
    return 1;
  }
  std::cout << "\nIndex invariants hold after the full stream: every leaf "
               "holds at least base_k records.\n";
  return 0;
}
