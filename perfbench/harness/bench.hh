/**
 * @file
 * Shared pieces of fa_perfbench: options, clocks, summary
 * statistics, the deterministic work counts every cell must repeat,
 * and the report that collects metrics and correctness failures.
 */

#ifndef FA_PERFBENCH_BENCH_HH
#define FA_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace perfbench {

/** The fig14 campaign's own seed (sweep::deriveSeed(0)), so the
 * default run reproduces `fabench fig14` exactly. */
constexpr std::uint64_t kDefaultSeed = 0xbe9c5;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 35.0;  ///< timed-phase budget
    bool traced = false;    ///< per-layer run instead of end-to-end
    bool smoke = false;     ///< tiny sizes (the benchmark's own test)
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Call rep() once, then again while another call of the longest
 * length seen so far still ends within `seconds` of the first start.
 */
template <class Fn>
void
repeatFor(double seconds, Fn &&rep)
{
    const auto t0 = Clock::now();
    double longest = 0.0;
    do {
        const auto r0 = Clock::now();
        rep();
        longest = std::max(longest, secondsSince(r0));
    } while (secondsSince(t0) + longest <= seconds);
}

double median(std::vector<double> v);
/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double> &v);
/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Simulated work of one cell. Pure function of the cell and seed:
 * repeats, traced runs and any pure-speed change must match it. */
struct WorkCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t fetchedInsts = 0;
    std::uint64_t squashedInsts = 0;
    std::uint64_t watchdogTimeouts = 0;
    std::uint64_t issuedUops = 0;
    std::uint64_t transactions = 0;
    std::uint64_t networkMsgs = 0;
    std::uint64_t invBlockedRetries = 0;
    std::uint64_t fillBlockedOnLock = 0;

    static WorkCounts of(fa::Cycle cycles, const fa::CoreStats &core,
                         const fa::MemStats &mem);
    void add(const WorkCounts &o);
    bool operator==(const WorkCounts &o) const = default;
};

/**
 * Metrics by name with their units, plus the correctness verdict:
 * every unit of work attempted and every check that failed.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** One unit of work (cell, job, judge call); a non-empty `error`
     * marks it failed. */
    void attempt(const std::string &what, const std::string &error = {});
    /** A check that is not a unit of work (repeatability, traced vs
     * untraced); failing it fails the run. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failures.empty(); }
    std::uint64_t attempted() const { return nAttempted; }

    /** One `name value unit` line per metric, the number of checks
     * made, then the verdict as one JSON object on the last line. */
    void print(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
    std::vector<std::string> failures;
    std::uint64_t nChecks = 0;
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/** Per-layer metrics shared by every workload's traced run. */
void reportWorkCounts(Report &rep, const WorkCounts &w);

} // namespace perfbench

#endif // FA_PERFBENCH_BENCH_HH
