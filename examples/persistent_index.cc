// Persisting the anonymizing index across "restarts": the R⁺-tree is saved
// into pages, dropped, reloaded, and incremental anonymization continues —
// with exactly the same leaf partitioning (hence the same published
// equivalence classes and k-bound groups) as before the restart.
//
//   $ ./build/examples/persistent_index

#include <algorithm>
#include <iostream>

#include "kanon/kanon.h"

int main() {
  using namespace kanon;

  const size_t k = 10;
  const Dataset day1 = LandsEndGenerator(41).Generate(10000);
  const Domain domain = day1.ComputeDomain();

  // Day 1: build incrementally and publish.
  IncrementalAnonymizer anonymizer(day1.dim(), {}, &domain);
  anonymizer.InsertBatch(day1, 0, day1.num_records());
  const PartitionSet day1_view = anonymizer.Snapshot(day1, k);
  std::cout << "day 1: " << anonymizer.size() << " records, "
            << day1_view.num_partitions() << " partitions, avgNCP="
            << AverageNcp(day1, day1_view) << "\n";

  // Shutdown: persist the index to (simulated) disk pages.
  MemPager pager;
  auto snapshot = SaveTree(anonymizer.tree(), &pager);
  if (!snapshot.ok()) {
    std::cerr << snapshot.status() << "\n";
    return 1;
  }
  std::cout << "saved index: " << snapshot->byte_size / 1024 << " KiB in "
            << pager.num_pages() << " pages\n";

  // Restart: reload and verify the published view is identical.
  auto restored = LoadTree(&pager, *snapshot, day1.dim(),
                           anonymizer.tree().config());
  if (!restored.ok()) {
    std::cerr << restored.status() << "\n";
    return 1;
  }
  if (auto s = restored->CheckInvariants(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const auto before = anonymizer.tree().OrderedLeaves();
  const auto after = restored->OrderedLeaves();
  bool identical = before.size() == after.size();
  for (size_t i = 0; identical && i < before.size(); ++i) {
    identical = std::ranges::equal(before[i]->rids(), after[i]->rids());
  }
  std::cout << "restart: " << restored->size() << " records restored; leaf "
            << "partitioning identical: " << (identical ? "yes" : "NO")
            << "\n";

  // Day 2: keep anonymizing on the restored index.
  Dataset all = day1;
  LandsEndGenerator(41).AppendTo(&all, 5000, /*stream_offset=*/1);
  for (RecordId r = day1.num_records(); r < all.num_records(); ++r) {
    restored->Insert(all.row(r), r, all.sensitive(r));
  }
  const auto leaves = ExtractLeafGroups(*restored);
  const PartitionSet day2_view = LeafScan(leaves, k);
  if (auto s = day2_view.CheckKAnonymous(k); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "day 2: " << restored->size() << " records, "
            << day2_view.num_partitions() << " partitions, avgNCP="
            << AverageNcp(all, day2_view) << "\n";
  std::cout << "\nThe anonymizing index survives restarts; incremental "
               "anonymization resumes without re-anonymizing anything.\n";
  return 0;
}
