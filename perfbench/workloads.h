#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// \brief The three benchmark workloads. Each is closed-loop, driven from
/// one client thread, sized by --seconds (work done, not time elapsed) and
/// seeded by --seed.
///
/// Each runs its workload through RunWorkload (harness.h), the run
/// protocol all three share.

#include "harness.h"

namespace perfbench {

void RunRetail(const Options& options, Result* result);
void RunBulkTransfer(const Options& options, Result* result);
void RunRecovery(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
