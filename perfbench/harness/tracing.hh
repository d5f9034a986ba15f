/**
 * @file
 * The traced run's instruments, all outside the simulator: an
 * in-memory span log, and a cycle loop that steps MemSystem::tick and
 * Core::tick itself so that every Nth cycle can be split into its
 * memory-system, core and loop parts, with the timer's own cost
 * measured in the same cycles and subtracted.
 */

#ifndef FA_PERFBENCH_TRACING_HH
#define FA_PERFBENCH_TRACING_HH

#include <cstdint>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

/** Monotonic timestamp in nanoseconds. */
std::int64_t stampNs();

enum class SpanKind : std::uint8_t {
    kCell,      ///< one simulation (root)
    kCycle,     ///< one sampled simulated cycle
    kTimer,     ///< an empty start/stop pair (calibration)
    kMemTick,   ///< MemSystem::tick within a sampled cycle
    kCoreTick,  ///< every Core::tick of a sampled cycle
    kLoop,      ///< the loop's halt and progress checks
};

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;  ///< index in the same log; -1 = root
    std::uint32_t cell = 0;    ///< which cell of the workload
    SpanKind kind = SpanKind::kCell;
};

/** Spans of one cell, kept in memory until its pass ends. */
class SpanLog
{
  public:
    explicit SpanLog(std::uint32_t cell) : cellId(cell) {}

    std::int32_t add(SpanKind kind, std::int64_t start, std::int64_t end,
                     std::int32_t parent);
    /** Open a span now; close() sets its end. */
    std::int32_t open(SpanKind kind, std::int32_t parent = -1);
    void close(std::int32_t idx);

    const std::vector<Span> &spans() const { return log; }

  private:
    std::uint32_t cellId;
    std::vector<Span> log;
};

/**
 * Run `sys` to completion the way System::run does (same halt test,
 * same global progress window, same cycle limit), stepping
 * sys.mem().tick(now) and every sys.coreAt(c).tick(now) directly.
 * Cycles with now % period == 0 are timed into `log` under `parent`:
 * a cycle span tiled by an empty timer pair, mem.tick, core.tick and
 * the loop's checks.
 */
fa::sim::RunOutcome runTraced(fa::sim::System &sys, fa::Cycle maxCycles,
                              fa::Cycle period, SpanLog &log,
                              std::int32_t parent);

/** Calibrated host time per layer over sampled cycles. */
struct LayerTimes
{
    std::uint64_t sampledCycles = 0;
    double cycleNs = 0.0;
    double memNs = 0.0;
    double coreNs = 0.0;
    double estCoreNs = 0.0;  ///< coreNs scaled up to every cycle
    double estMemNs = 0.0;   ///< memNs scaled up to every cycle
    /** Per log: the median empty timer pair (the cost subtracted from
     * each of its spans), and the mean left after subtracting it. */
    std::vector<double> timerCostNs;
    std::vector<double> timerResidualNs;

    void add(const LayerTimes &o);
};

/**
 * Sum the sampled cycles of one log. The median of the log's empty
 * timer pairs, measured in the same cycles as the work, is taken off
 * every span; a parent keeps its own uncovered time plus its
 * children's corrected times, so nesting never subtracts twice.
 */
LayerTimes layerTimes(const SpanLog &log, fa::Cycle cellCycles);

} // namespace perfbench

#endif // FA_PERFBENCH_TRACING_HH
