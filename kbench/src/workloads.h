#ifndef KBENCH_WORKLOADS_H_
#define KBENCH_WORKLOADS_H_

#include "bench.h"

namespace kbench {

/// Streams LandsEnd records over HTTP into a WAL-backed service while one
/// poller watches the release; measures time until records are visible.
Outcome RunDurableIngest(const Config& config);

/// Reads one immutable published snapshot over HTTP from three readers.
Outcome RunReleaseReads(const Config& config);

/// Back-to-back buffer-tree bulk anonymization jobs under a memory budget
/// several times smaller than each table.
Outcome RunBulkAnonymize(const Config& config);

/// Reports the self-time shares of `spans` and the tracing overhead of the
/// traced pass against the untraced one, for each end-to-end timing.
void ReportTrace(const std::vector<Span>& spans, const Metrics& untraced,
                 const Metrics& traced, Outcome* out);

}  // namespace kbench

#endif  // KBENCH_WORKLOADS_H_
