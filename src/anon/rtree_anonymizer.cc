#include "anon/rtree_anonymizer.h"

#include <algorithm>

#include "common/check.h"

namespace kanon {

namespace {

/// Buffer-tree node buffers, in default-size pages.
constexpr size_t kBufferPages = 8;

RTreeConfig MakeTreeConfig(const RTreeAnonymizerOptions& options) {
  RTreeConfig config;
  config.min_leaf = options.base_k;
  config.max_leaf =
      std::max(options.base_k * options.leaf_capacity_factor,
               2 * options.base_k);  // splittable into two >= base_k halves
  config.max_fanout = options.max_fanout;
  config.split = options.split;
  if (options.constraint != nullptr) {
    config.leaf_admissible = options.constraint->AsLeafPredicate();
  }
  return config;
}

/// Picks the page size for the buffer-tree backend: one leaf per page (the
/// paper's model — leaves *are* index pages), rounded up to a 256-byte
/// boundary and capped at the default page size. An 8 KiB page holding a
/// 15-record leaf would waste ~85% of every frame and thrash the pool.
size_t LeafPageSize(size_t max_leaf, size_t dim) {
  const RecordCodec codec(dim);
  const size_t natural = RecordPageView::kHeaderSize +
                         (max_leaf + 1) * codec.record_size();
  const size_t rounded = (natural + 255) / 256 * 256;
  return std::min(std::max<size_t>(512, rounded), kDefaultPageSize);
}

/// kBufferPages default-size pages expressed in `page_size` pages, so the
/// clear threshold (in records) is independent of the actual page size.
size_t BufferPages(size_t page_size, size_t dim) {
  const RecordCodec codec(dim);
  const size_t per_page =
      (page_size - RecordPageView::kHeaderSize) / codec.record_size();
  const size_t per_default_page =
      (kDefaultPageSize - RecordPageView::kHeaderSize) / codec.record_size();
  const size_t target_records =
      std::max<size_t>(1, kBufferPages * per_default_page);
  return std::max<size_t>(1, target_records / per_page);
}

/// Builds the tree of the in-memory backends (tuple loading, top-down).
RPlusTree BuildInMemory(const Dataset& dataset, const RTreeConfig& config,
                        const RTreeAnonymizerOptions& options) {
  if (options.backend == RTreeAnonymizerOptions::Backend::kTupleLoading) {
    RPlusTree tree(dataset.dim(), config);
    for (RecordId r = 0; r < dataset.num_records(); ++r) {
      tree.Insert(dataset.row(r), r, dataset.sensitive(r));
    }
    return tree;
  }
  // Only the root's pieces build concurrently, and there are at most
  // max_fanout of them: more threads would sit idle.
  const size_t threads = std::min(options.threads, config.max_fanout);
  std::unique_ptr<ThreadPool> workers;
  if (threads > 1) workers = std::make_unique<ThreadPool>(threads - 1);
  return TopDownBulkLoad(DatasetRecords(dataset), config, workers.get());
}

}  // namespace

RTreeAnonymizer::RTreeAnonymizer(RTreeAnonymizerOptions options)
    : options_(options) {
  KANON_CHECK(options_.base_k >= 1);
  KANON_CHECK(options_.leaf_capacity_factor >= 2);
}

StatusOr<RTreeAnonymizer::BuildResult> RTreeAnonymizer::BuildLeaves(
    const Dataset& dataset) const {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot anonymize an empty dataset");
  }
  const Domain domain = dataset.ComputeDomain();
  BuildResult result;

  // Split decisions must compare attribute extents on a normalized scale
  // (a raw zipcode range dwarfs a raw quantity range); fill the
  // normalizer from the data unless the caller provided one.
  RTreeAnonymizerOptions options = options_;
  if (options.split.domain_extent.empty()) {
    options.split.domain_extent.reserve(dataset.dim());
    for (size_t a = 0; a < dataset.dim(); ++a) {
      options.split.domain_extent.push_back(domain.Extent(a));
    }
  }

  const RTreeConfig config = MakeTreeConfig(options);
  if (options.backend != RTreeAnonymizerOptions::Backend::kBufferTree) {
    const RPlusTree tree = BuildInMemory(dataset, config, options);
    result.leaves = ExtractLeafGroups(tree, &domain);
    result.tree_height = tree.height();
    return result;
  }

  // The buffer tree stores one leaf per page.
  const size_t page_size = LeafPageSize(config.max_leaf, dataset.dim());
  std::unique_ptr<Pager> pager;
  if (options.use_disk) {
    KANON_ASSIGN_OR_RETURN(auto file_pager, FilePager::Create(page_size));
    pager = std::move(file_pager);
  } else {
    pager = std::make_unique<MemPager>(page_size);
  }
  const size_t frames =
      std::max<size_t>(8, options.memory_budget_bytes / page_size);
  BufferPool pool(pager.get(), frames);

  BufferTree tree(dataset.dim(), config, BufferPages(page_size, dataset.dim()),
                  &pool);
  for (RecordId r = 0; r < dataset.num_records(); ++r) {
    KANON_RETURN_IF_ERROR(tree.Insert(dataset.row(r), r, dataset.sensitive(r)));
  }
  KANON_RETURN_IF_ERROR(tree.Flush());
  KANON_ASSIGN_OR_RETURN(result.leaves, ExtractLeafGroups(tree, &domain));
  result.tree_height = tree.height();
  result.io = pager->stats();
  result.cache = pool.stats();
  return result;
}

PartitionSet RTreeAnonymizer::Granularize(const Dataset& dataset,
                                          std::span<const LeafGroup> leaves,
                                          size_t k) const {
  const size_t k1 = std::max(k, options_.base_k);
  PartitionSet out;
  if (options_.compact) {
    if (options_.constraint != nullptr) {
      out = LeafScanWithConstraint(leaves, dataset, *options_.constraint);
    } else {
      out = LeafScan(leaves, k1);
    }
    return out;
  }
  // Uncompacted emission: scan over the leaf *regions* so the published
  // boxes are the index cells rather than tight record bounds.
  std::vector<LeafGroup> region_view(leaves.begin(), leaves.end());
  for (LeafGroup& g : region_view) {
    if (!g.region.empty()) g.mbr = g.region;
  }
  if (options_.constraint != nullptr) {
    return LeafScanWithConstraint(region_view, dataset, *options_.constraint);
  }
  return LeafScan(region_view, k1);
}

StatusOr<PartitionSet> RTreeAnonymizer::Anonymize(const Dataset& dataset,
                                                  size_t k) const {
  KANON_ASSIGN_OR_RETURN(BuildResult built, BuildLeaves(dataset));
  return Granularize(dataset, built.leaves, k);
}

namespace {

RTreeAnonymizerOptions WithDomainHint(RTreeAnonymizerOptions options,
                                      const Domain* domain_hint) {
  if (domain_hint != nullptr && options.split.domain_extent.empty()) {
    for (size_t a = 0; a < domain_hint->dim(); ++a) {
      options.split.domain_extent.push_back(domain_hint->Extent(a));
    }
  }
  return options;
}

}  // namespace

IncrementalAnonymizer::IncrementalAnonymizer(size_t dim,
                                             RTreeAnonymizerOptions options,
                                             const Domain* domain_hint)
    : options_(WithDomainHint(std::move(options), domain_hint)),
      tree_(dim, MakeTreeConfig(options_)) {}

void IncrementalAnonymizer::Insert(std::span<const double> point,
                                   RecordId rid, int32_t sensitive) {
  tree_.Insert(point, rid, sensitive);
}

void IncrementalAnonymizer::AdoptTree(RPlusTree tree) {
  KANON_CHECK_MSG(tree.dim() == tree_.dim(),
                  "adopted tree dimensionality mismatch");
  KANON_CHECK_MSG(tree.config().min_leaf == tree_.config().min_leaf &&
                      tree.config().max_leaf == tree_.config().max_leaf &&
                      tree.config().max_fanout == tree_.config().max_fanout,
                  "adopted tree structural config mismatch");
  tree_ = std::move(tree);
}

void IncrementalAnonymizer::InsertBatch(const Dataset& dataset,
                                        RecordId begin, RecordId end) {
  KANON_CHECK(begin <= end && end <= dataset.num_records());
  for (RecordId r = begin; r < end; ++r) {
    tree_.Insert(dataset.row(r), r, dataset.sensitive(r));
  }
}

void IncrementalAnonymizer::Repack() {
  // Collect the records and bulk-load them: the top-down cuts see the
  // whole record multiset at once, so leaf (spatial) order is as good an
  // input as any.
  RecordBatch records(tree_.dim());
  records.Reserve(tree_.size());
  for (const Node* leaf : tree_.OrderedLeaves()) {
    for (size_t i = 0; i < leaf->leaf_size(); ++i) {
      records.Append(leaf->rids()[i], leaf->sensitive()[i], leaf->point(i));
    }
  }
  tree_ = TopDownBulkLoad(std::move(records), MakeTreeConfig(options_));
}

PartitionSet IncrementalAnonymizer::Snapshot(const Dataset& dataset,
                                             size_t k) const {
  const Domain domain = dataset.ComputeDomain();
  const std::vector<LeafGroup> leaves = ExtractLeafGroups(tree_, &domain);
  RTreeAnonymizer granularizer(options_);
  return granularizer.Granularize(dataset, leaves, k);
}

}  // namespace kanon
