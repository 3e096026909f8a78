#ifndef KANON_KANON_H_
#define KANON_KANON_H_

/// Umbrella header: the full public API of the kanon library, an
/// implementation of "K-Anonymization as Spatial Indexing: Toward Scalable
/// and Incremental Anonymization" (Iwuchukwu & Naughton, VLDB 2007).
///
/// Typical use:
///
///   kanon::Dataset data = kanon::Adult::LoadOrSynthesize("adult.data", 30000);
///   kanon::RTreeAnonymizer anonymizer;
///   auto partitions = anonymizer.Anonymize(data, /*k=*/10);
///   auto table = kanon::AnonymizedTable::FromPartitions(data,
///                                                       *std::move(partitions));

#include "anon/anonymized_table.h"
#include "anon/compaction.h"
#include "anon/constraints.h"
#include "anon/grid_anonymizer.h"
#include "anon/leaf_scan.h"
#include "anon/mondrian.h"
#include "anon/multigranular.h"
#include "anon/partition.h"
#include "anon/rtree_anonymizer.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sysinfo.h"
#include "common/timer.h"
#include "data/adult.h"
#include "data/agrawal_generator.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/hierarchy.h"
#include "data/landsend_generator.h"
#include "data/schema.h"
#include "data/schema_spec.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "index/buffer_tree.h"
#include "index/bulk_load.h"
#include "index/hilbert.h"
#include "index/mbr.h"
#include "index/rplus_tree.h"
#include "index/split.h"
#include "index/tree_persistence.h"
#include "metrics/certainty.h"
#include "metrics/discernibility.h"
#include "metrics/histogram.h"
#include "metrics/kl_divergence.h"
#include "metrics/quality_report.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "query/workload.h"
#include "service/anonymization_service.h"
#include "service/ingest_queue.h"
#include "service/service_stats.h"
#include "service/snapshot.h"
#include "shard/shard_router.h"
#include "shard/sharded_service.h"
#include "shard/stitched_snapshot.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/spill_file.h"

#endif  // KANON_KANON_H_
