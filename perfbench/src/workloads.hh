/**
 * @file
 * The benchmark's workloads. Each run measures for Options::seconds
 * and verifies every verdict against a known answer:
 *
 *  - offline_small / offline_sparse (offline.cc): a seeded v2 trace
 *    file checked the way `pmtest_check FILE` checks it.
 *  - online_apps (online.cc): the Fig. 11 apps driven request by
 *    request, natively and under PMTest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench
{

/** True when @p name is an offline workload. */
bool isOfflineWorkload(const std::string &name);

/** Run offline_small or offline_sparse. */
Result runOffline(const Options &options);

/** Run online_apps. */
Result runOnline(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
