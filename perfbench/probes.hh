/**
 * @file
 * Component probes: host time of single simulator components, driven
 * through their public interfaces on a minimal hand-wired machine.
 * They time the hot paths ROADMAP item 2 names, apart from any
 * workload, so a change to one component shows up in its own number.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <vector>

namespace perfbench
{

/** One probe result: median host time of one repetition. */
struct ProbeResult
{
    std::string name; //!< per-layer metric name, e.g. "noc.send_ns"
    std::string unit; //!< "us" or "ns"
    double value = 0;
    std::string what; //!< one line: what one repetition does
};

/**
 * Runs every probe for a fixed repetition count and returns the
 * medians: l1.deferred_burst_us, stash.miss_burst_us,
 * vpmap.translate_ns, llc.bank_build_us and noc.send_ns.
 */
std::vector<ProbeResult> runProbes();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
