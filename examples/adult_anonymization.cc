// Anonymizes the UCI Adult data set (the standard public benchmark of the
// k-anonymization literature) and reports quality under all three metrics,
// plus an l-diversity variant.
//
//   $ ./build/examples/adult_anonymization [path/to/adult.data] [k] [out.csv]
//
// Without a path (or if the file is absent) a distribution-matched
// synthetic Adult sample is used, so the example always runs offline. The
// anonymized table goes to out.csv (default: adult_anonymized.csv in the
// working directory).

#include <cstdlib>
#include <iostream>

#include "kanon/kanon.h"

int main(int argc, char** argv) {
  using namespace kanon;

  const std::string path = argc > 1 ? argv[1] : "adult.data";
  const size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 10;
  const std::string out = argc > 3 ? argv[3] : "adult_anonymized.csv";

  const Dataset data = Adult::LoadOrSynthesize(path, /*fallback_n=*/30000);
  std::cout << "Loaded " << data.num_records() << " records, " << data.dim()
            << " quasi-identifier attributes.\n";

  // Plain k-anonymity.
  RTreeAnonymizer anonymizer;
  Timer timer;
  auto partitions = anonymizer.Anonymize(data, k);
  if (!partitions.ok()) {
    std::cerr << partitions.status() << "\n";
    return 1;
  }
  std::cout << "\n" << k << "-anonymization took "
            << timer.ElapsedMillis() << " ms\n";
  std::cout << "  " << FormatQuality(ComputeQuality(data, *partitions))
            << "\n";

  // Distinct l-diversity on occupation (the sensitive attribute).
  DistinctLDiversity constraint(k, /*l=*/4);
  RTreeAnonymizerOptions ldiv_options;
  ldiv_options.base_k = k;
  ldiv_options.constraint = &constraint;
  timer.Restart();
  auto ldiv = RTreeAnonymizer(ldiv_options).Anonymize(data, k);
  if (!ldiv.ok()) {
    std::cerr << ldiv.status() << "\n";
    return 1;
  }
  std::cout << "\n" << constraint.Name() << " took " << timer.ElapsedMillis()
            << " ms\n";
  std::cout << "  " << FormatQuality(ComputeQuality(data, *ldiv)) << "\n";

  // Show a few published rows (hierarchy labels render for categoricals).
  auto table = AnonymizedTable::FromPartitions(data, *std::move(partitions));
  std::cout << "\nSample published rows:\n";
  for (RecordId r = 0; r < 5 && r < data.num_records(); ++r) {
    std::cout << "  " << table->RenderRow(data.schema(), r) << "\n";
  }

  if (auto s = table->WriteCsv(out, data.schema()); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "\nFull anonymized table written to " << out << "\n";
  return 0;
}
