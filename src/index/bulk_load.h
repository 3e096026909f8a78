#ifndef KANON_INDEX_BULK_LOAD_H_
#define KANON_INDEX_BULK_LOAD_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "index/mbr.h"
#include "index/rplus_tree.h"
#include "storage/spill_file.h"

namespace kanon {

/// One leaf-sized group of records, the common currency between the index
/// layer and the anonymization layer. `mbr` is the tight bounding box of
/// the member records. `region` is the leaf's index region clipped to the
/// data domain when the group came from a region-disciplined tree (empty
/// for sort-based loaders) — the *uncompacted* generalized value.
struct LeafGroup {
  std::vector<RecordId> rids;
  Mbr mbr;
  Mbr region;
};

/// Which space-filling curve orders the records.
enum class CurveOrder {
  kHilbert,
  kZOrder,
};

/// Parameters for sort-based loading. Groups hold `target_size` records;
/// a final fragment smaller than `min_size` is merged into the previous
/// group so every group respects the anonymity floor.
struct SortLoadConfig {
  size_t min_size = 5;      // k
  size_t target_size = 10;  // records per leaf before the remainder
  int grid_bits = 10;       // curve quantization resolution
};

/// Space-filling-curve bulk load (Kamel/Faloutsos-style packing): sort all
/// records by curve key, then chunk. These are the "spatial sorting based on
/// space-filling curves" loaders the paper experimented with before
/// settling on the buffer tree; kept for the ablation benchmarks.
std::vector<LeafGroup> CurveBulkLoad(const Dataset& dataset, CurveOrder order,
                                     const SortLoadConfig& config);

/// Sort-Tile-Recursive packing (Leutenegger et al.): recursively slab-sort
/// one attribute at a time so groups form spatial tiles.
std::vector<LeafGroup> StrBulkLoad(const Dataset& dataset,
                                   const SortLoadConfig& config);

/// Top-down bulk construction of a complete R⁺-tree (not just leaf
/// groups) from `records` in the order they come in: recursive
/// region-disciplined cuts of the record array, each yielding at most
/// max_fanout pieces. The result satisfies every RPlusTree invariant
/// (region tiling, occupancy window, admissibility-gated splits). Every
/// cut is a pure function of the record multiset, so the leaves (their
/// records, MBRs and regions, in leaf order) do not depend on the input
/// order; the input order only fixes the order of records inside a leaf,
/// because each cut keeps it. This is the builder behind
/// IncrementalAnonymizer::Repack.
RPlusTree TopDownBulkLoad(RecordBatch records, const RTreeConfig& config);

}  // namespace kanon

#endif  // KANON_INDEX_BULK_LOAD_H_
