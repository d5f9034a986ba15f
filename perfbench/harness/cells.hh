/**
 * @file
 * Simulation cells and passes: what every workload runs, timed from
 * outside the library, and the metrics every workload derives from
 * them.
 */

#ifndef FA_PERFBENCH_CELLS_HH
#define FA_PERFBENCH_CELLS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/core_config.hh"
#include "sim/system.hh"
#include "tracing.hh"
#include "workloads/workload.hh"

namespace perfbench {

constexpr fa::core::AtomicsMode kModes[] = {
    fa::core::AtomicsMode::kFenced,
    fa::core::AtomicsMode::kSpec,
    fa::core::AtomicsMode::kFree,
    fa::core::AtomicsMode::kFreeFwd,
};

/** One simulation: a workload on icelake at one size and mode. */
struct SimCell
{
    std::string name;  ///< "workload/threads/mode"
    const fa::wl::Workload *w = nullptr;
    unsigned threads = 1;
    double scale = 1.0;
    fa::sim::MachineConfig machine;
    fa::Cycle maxCycles = 50'000'000;

    // Built during set-up.
    std::vector<fa::isa::Program> progs;
    fa::sim::MemInit init;
};

/** The traced loop times one cycle in this many. */
constexpr fa::Cycle kTracePeriod = 64;

/** Look a workload up; FatalError when it is not registered. */
const fa::wl::Workload &findWorkload(const std::string &name);

SimCell makeCell(const std::string &workload, unsigned threads,
                 double scale, fa::core::AtomicsMode mode,
                 bool recordTrace = false);

/** Build the cell's programs and memory image; returns the seconds
 * spent in wl::buildPrograms. */
double prepare(SimCell &cell);

/** One finished simulation. The System stays alive for judges that
 * read its trace. */
struct CellRun
{
    std::unique_ptr<fa::sim::System> sys;
    fa::sim::RunOutcome out;
    double wallSec = 0.0;  ///< construct + load + run, host seconds
    WorkCounts work;
    std::string error;     ///< not finished, or verify failed

    double mips() const
    {
        return static_cast<double>(work.committedInsts) / wallSec / 1e6;
    }
};

/**
 * Run a prepared cell with System::run, or, when `log` is set, with
 * the traced outside loop sampling every kTracePeriod cycles. Applies
 * the workload's verify hook either way.
 */
CellRun runCell(const SimCell &cell, std::uint64_t seed,
                SpanLog *log = nullptr);

/** Judge work of one pass, summed over its calls. */
struct JudgeTotals
{
    std::uint64_t mcStates = 0;
    std::uint64_t mcTransitions = 0;
    double mcSec = 0.0;
    std::uint64_t raceEvents = 0;
    double raceSec = 0.0;
    std::uint64_t tsoEvents = 0;
    double tsoSec = 0.0;

    bool sameWork(const JudgeTotals &o) const
    {
        return mcStates == o.mcStates &&
            mcTransitions == o.mcTransitions &&
            raceEvents == o.raceEvents && tsoEvents == o.tsoEvents;
    }
};

/** What one pass over a workload produced. */
struct Pass
{
    double wallSec = 0.0;
    unsigned poolThreads = 1;
    std::vector<double> jobSec;  ///< every job of the pass, in order
    /** Per simulation cell, in cell order. */
    std::vector<double> cellMips;
    std::vector<fa::core::AtomicsMode> cellModes;
    std::vector<WorkCounts> cellWork;
    LayerTimes layers;  ///< traced passes only
    JudgeTotals judges; ///< analysis-judges only

    WorkCounts totalWork() const;
};

/** Median of repeated samples per metric name, then into a report. */
class Samples
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    void reportMedians(Report &rep) const;

  private:
    std::vector<std::string> order;
    std::map<std::string, std::pair<std::vector<double>, std::string>>
        values;
};

/** The sim/core/mem/sweep per-layer metrics and trace overhead of one
 * (untraced, traced) pair of passes over the same work. */
void addLayerSamples(Samples &s, const Pass &plain, const Pass &traced);

/** Check the deterministic work of every cell and judge against the
 * first pass: repeats and the traced loop must reproduce it exactly. */
void checkSameWork(Report &rep, const Pass &first, const Pass &other,
                   const std::string &what);

} // namespace perfbench

#endif // FA_PERFBENCH_CELLS_HH
