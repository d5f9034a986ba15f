#include "workloads.hh"

#include <cmath>
#include <functional>

#include "analysis/mc/explore.hh"
#include "analysis/race/hb.hh"
#include "analysis/tso_checker.hh"
#include "cells.hh"
#include "common/log.hh"
#include "sim/sweep/campaigns.hh"
#include "sim/sweep/pool.hh"
#include "sim/sweep/sweep.hh"

namespace perfbench {

namespace {

using fa::core::AtomicsMode;

/** See SetUp. */
constexpr double kSetupBatchSec = 0.1;
constexpr std::size_t kSetupMinBatches = 5;
constexpr double kSetupShare = 0.05;

/**
 * Worker threads for every workload's simulations and judge calls:
 * the fig14 campaign's width. On a shared 4-vCPU VM each vCPU's speed
 * swings from moment to moment on its own; in an interleaved A/B test
 * running the litmus cells on the pool instead of one after another
 * halved the run-to-run spread of their times.
 */
unsigned
poolWidth()
{
    return std::min(4u, fa::sim::sweep::Pool::hardwareThreads());
}

using PlainPass = std::function<Pass()>;
using TracedPass = std::function<Pass(std::vector<SpanLog> &)>;

/**
 * Times a workload's set-up, `once`, which returns the seconds it
 * spent in wl::buildPrograms. One set-up takes 1-20 ms, too short to
 * time alone, so it runs in batches of at least kSetupBatchSec. A
 * single thread's speed on a shared VM swings between moments (batch
 * times of one run fall into a fast and a slow group up to 2x apart),
 * so batches run before the timed phase (kSetupMinBatches) and again
 * after every pass (kSetupShare of its time, at least one batch),
 * spread over the whole run in proportion to time, and setup_s is their
 * total time over the set-ups they made: the mean, which moves
 * smoothly with the share of slow batches where a median would jump
 * between the groups.
 */
class SetUp
{
  public:
    explicit SetUp(std::function<double()> fn) : once(std::move(fn))
    {
        auto t0 = Clock::now();
        once();
        const double first = secondsSince(t0);
        if (first > 0.0)
            perBatch = std::max(1, static_cast<int>(kSetupBatchSec / first));
        for (std::size_t i = 0; i < kSetupMinBatches; ++i)
            batch();
    }

    /** Batches for kSetupShare of a pass of `passSec`, at least one. */
    void
    afterPass(double passSec)
    {
        const double before = totalSec;
        do
            batch();
        while (totalSec - before < kSetupShare * passSec);
    }

    /** setup_s, or workloads.build_s in a traced run. */
    void
    report(const Options &opt, Report &rep) const
    {
        if (opt.traced)
            rep.metric("workloads.build_s", buildSec / setUps, "s");
        else
            rep.metric("setup_s", totalSec / setUps, "s");
    }

  private:
    void
    batch()
    {
        auto t0 = Clock::now();
        for (int i = 0; i < perBatch; ++i)
            buildSec += once();
        totalSec += secondsSince(t0);
        setUps += perBatch;
    }

    std::function<double()> once;
    int perBatch = 1;
    int setUps = 0;
    double totalSec = 0.0;  ///< timed set-ups
    double buildSec = 0.0;  ///< wl::buildPrograms share of totalSec
};

/**
 * Run every cell through a sweep::Pool of `threads` workers, traced
 * into `logs` when given. With `buildInJob` a job builds its own
 * programs first, as sweep::runSweep's jobs do. `keep` receives the
 * finished runs, Systems included.
 */
Pass
simPass(std::vector<SimCell> &cells, const Options &opt, Report &rep,
        unsigned threads, std::vector<SpanLog> *logs,
        bool buildInJob = false, std::vector<CellRun> *keep = nullptr)
{
    const std::size_t n = cells.size();
    std::vector<CellRun> runs(n);
    Pass p;
    p.jobSec.resize(n);
    fa::sim::sweep::Pool pool(threads);
    p.poolThreads = pool.threads();
    auto t0 = Clock::now();
    pool.run(n, [&](std::size_t i) {
        auto j0 = Clock::now();
        SimCell &cell = cells[i];
        try {
            if (buildInJob)
                prepare(cell);
            runs[i] = runCell(cell, opt.seed, logs ? &(*logs)[i] : nullptr);
        } catch (const fa::FatalError &e) {
            runs[i].error = e.message;
        }
        if (buildInJob) {
            cell.progs.clear();
            cell.init.clear();
        }
        if (!keep)
            runs[i].sys.reset();
        p.jobSec[i] = secondsSince(j0);
    });
    p.wallSec = secondsSince(t0);
    for (std::size_t i = 0; i < n; ++i) {
        const CellRun &r = runs[i];
        rep.attempt(cells[i].name, r.error);
        p.cellMips.push_back(r.wallSec > 0.0 ? r.mips() : 0.0);
        p.cellModes.push_back(cells[i].machine.core.mode);
        p.cellWork.push_back(r.work);
        if (logs)
            p.layers.add(layerTimes((*logs)[i], r.work.cycles));
    }
    if (keep)
        *keep = std::move(runs);
    return p;
}

std::vector<SpanLog>
makeLogs(std::size_t n)
{
    std::vector<SpanLog> logs;
    for (std::size_t i = 0; i < n; ++i)
        logs.emplace_back(static_cast<std::uint32_t>(i));
    return logs;
}

double
rate(std::uint64_t n, double sec)
{
    return sec > 0.0 ? static_cast<double>(n) / sec : 0.0;
}

/** Judge throughput; zero on workloads that run no judge. */
void
addJudgeSamples(Samples &s, const JudgeTotals &j, bool perLayer)
{
    s.add("famc_states_per_s", rate(j.mcStates, j.mcSec), "1/s");
    s.add("farace_events_per_s", rate(j.raceEvents, j.raceSec), "1/s");
    s.add("tso_events_per_s", rate(j.tsoEvents, j.tsoSec), "1/s");
    if (!perLayer)
        return;
    s.add("mc.states", static_cast<double>(j.mcStates), "count");
    s.add("mc.transitions", static_cast<double>(j.mcTransitions),
          "count");
    s.add("mc.explore_s", j.mcSec, "s");
    s.add("race.events", static_cast<double>(j.raceEvents), "count");
    s.add("race.analyze_s", j.raceSec, "s");
    s.add("tso.events", static_cast<double>(j.tsoEvents), "count");
    s.add("tso.check_s", j.tsoSec, "s");
}

/**
 * How a workload's wall_s and sim_mips are taken from its passes.
 *
 * wall_s. Where the pool only spreads the jobs over the vCPUs (kCells,
 * kJobs), whose speeds swing independently of one another, each job's
 * median over the passes averages all of them. A pass's wall would
 * instead be set by whichever vCPU ran slowest and by how 12 or 13
 * jobs of unequal length happened to fall on 4 threads, one job more
 * or less on the last thread moving it by a quarter. wall_s there is
 * the sum of every job's median time, the pass as run one job after
 * another. Where the pool is what is measured (kSweep: the campaign as
 * users run it), wall_s is the median pass wall.
 *
 * sim_mips. Where the pass is nothing but simulations (kCells), the
 * geometric mean of every cell's median MIPS. Elsewhere the pass's
 * committed instructions over wall_s, the rate the workload delivers:
 * a sweep job's own MIPS depends on which jobs ran beside it, and the
 * judges' three record cells are too few for a steady mean.
 */
enum class PassShape { kCells, kJobs, kSweep };

/** Median over passes of element `i` of the vector `field`. */
double
medianOf(const std::vector<Pass> &passes, std::size_t i,
         std::vector<double> Pass::*field)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back((p.*field)[i]);
    return median(v);
}

double
passTime(const std::vector<Pass> &passes, PassShape shape)
{
    if (shape == PassShape::kSweep) {
        std::vector<double> wall;
        for (const Pass &p : passes)
            wall.push_back(p.wallSec);
        return median(wall);
    }
    double total = 0.0;
    for (std::size_t j = 0; j < passes.front().jobSec.size(); ++j)
        total += medianOf(passes, j, &Pass::jobSec);
    return total;
}

double
simMips(const std::vector<Pass> &passes, PassShape shape, double wallS)
{
    const Pass &first = passes.front();
    if (shape != PassShape::kCells)
        return static_cast<double>(first.totalWork().committedInsts) /
            wallS / 1e6;
    std::vector<double> mips;
    for (std::size_t c = 0; c < first.cellMips.size(); ++c)
        mips.push_back(medianOf(passes, c, &Pass::cellMips));
    return geomean(mips);
}

/**
 * A workload's timed phase: untraced passes for Options::seconds and
 * the end-to-end metrics, or (traced) pairs of an untraced and a
 * traced pass and the per-layer metrics. Either way every repeat must
 * reproduce the first pass's simulated work exactly.
 */
void
timedPhase(const Options &opt, Report &rep, SetUp &setup,
           const PlainPass &plain, const TracedPass &traced,
           std::size_t nLogs, PassShape shape)
{
    std::vector<Pass> passes;
    Samples s;
    double rssMb = 0.0;
    if (!opt.traced) {
        repeatFor(opt.seconds, [&] {
            passes.push_back(plain());
            // Later passes only add what the allocator keeps from
            // earlier ones, which depends on which thread ran what.
            if (passes.size() == 1)
                rssMb = peakRssMb();
            setup.afterPass(passes.back().wallSec);
        });
    } else {
        repeatFor(opt.seconds, [&] {
            passes.push_back(plain());
            setup.afterPass(passes.back().wallSec);
            std::vector<SpanLog> logs = makeLogs(nLogs);
            Pass t = traced(logs);
            checkSameWork(rep, passes.front(), t, "traced loop");
            addLayerSamples(s, passes.back(), t);
            addJudgeSamples(s, t.judges, true);
        });
    }
    for (std::size_t i = 1; i < passes.size(); ++i)
        checkSameWork(rep, passes.front(), passes[i], "repeat pass");

    setup.report(opt, rep);
    if (opt.traced) {
        s.reportMedians(rep);
        reportWorkCounts(rep, passes.front().totalWork());
    } else {
        const double wallS = passTime(passes, shape);
        rep.metric("wall_s", wallS, "s");
        rep.metric("sim_mips", simMips(passes, shape, wallS), "MIPS");
        rep.metric("jobs_per_s",
                   static_cast<double>(passes.front().jobSec.size()) /
                       wallS,
                   "1/s");
        rep.metric("peak_rss_mb", rssMb, "MB");
        for (const Pass &p : passes)
            addJudgeSamples(s, p.judges, false);
        s.reportMedians(rep);
    }
    rep.metric("passes", static_cast<double>(passes.size()), "count");
}

} // namespace

// --- litmus-modes -------------------------------------------------------

void
runLitmusModes(const Options &opt, Report &rep)
{
    // Scales per mode (fenced, spec, free, freefwd) give every cell
    // 0.2-0.3 s on a 4-vCPU Xeon VM: the modes differ by up to 100x in
    // cycles per iteration (dl_storermw's watchdog fires only without
    // fences). Smoke sizes finish in milliseconds.
    struct Spec
    {
        const char *workload;
        unsigned threads;
        double scale[4];
    };
    const Spec specs[] = {
        {"sb_rmw", 2, {128, 128, 128, 128}},
        {"atomic_counter", 8, {36, 36, 36, 192}},
        {"dl_storermw", 2, {128, 128, 2, 16}},
    };
    std::vector<SimCell> cells;
    for (const Spec &sp : specs)
        for (int m = 0; m < 4; ++m)
            cells.push_back(makeCell(sp.workload, sp.threads,
                                     opt.smoke ? 1.0 : sp.scale[m],
                                     kModes[m]));

    SetUp setup([&] {
        double built = 0.0;
        for (SimCell &c : cells)
            built += prepare(c);
        return built;
    });
    timedPhase(
        opt, rep, setup,
        [&] { return simPass(cells, opt, rep, poolWidth(), nullptr); },
        [&](std::vector<SpanLog> &logs) {
            return simPass(cells, opt, rep, poolWidth(), &logs);
        },
        cells.size(), PassShape::kCells);
}

// --- fig14-sweep --------------------------------------------------------

namespace {

/** Paper reference, Figure 14: FreeAtomics+Fwd cuts execution time
 * by 12.5% over all apps and 25.2% over the atomic-intensive ones. */
constexpr double kPaperAllPct = 12.5;
constexpr double kPaperAiPct = 25.2;

/** The fig14 campaign's headline reductions, as its renderer computes
 * them, and their mean distance from the paper's. */
void
addFig14Headline(Samples &s, const fa::sim::sweep::SweepReport &r)
{
    double sumAll = 0.0;
    double sumAi = 0.0;
    unsigned nAll = 0;
    unsigned nAi = 0;
    for (const fa::wl::Workload &w : fa::wl::allWorkloads()) {
        double norm =
            static_cast<double>(r.at(w.name, "freefwd").run.cycles) /
            static_cast<double>(r.at(w.name, "fenced").run.cycles);
        sumAll += norm;
        ++nAll;
        if (w.atomicIntensive) {
            sumAi += norm;
            ++nAi;
        }
    }
    double all = 100.0 * (1.0 - sumAll / nAll);
    double ai = 100.0 * (1.0 - sumAi / nAi);
    s.add("fig14.reduction_all_pct", all, "%");
    s.add("fig14.reduction_ai_pct", ai, "%");
    s.add("fig14_gap_pp",
          (std::fabs(kPaperAllPct - all) + std::fabs(kPaperAiPct - ai)) /
              2.0,
          "pp");
}

} // namespace

void
runFig14Sweep(const Options &opt, Report &rep)
{
    namespace sw = fa::sim::sweep;
    sw::CampaignCfg cfg;
    cfg.cores = opt.smoke ? 4 : 32;
    cfg.scale = opt.smoke ? 0.02 : 0.5;
    cfg.seeds = 1;
    const unsigned threads = poolWidth();

    std::vector<sw::SweepJob> jobs;
    std::vector<SimCell> cells;  // the same jobs, for the traced loop
    SetUp setup([&] {
        jobs = sw::findCampaign("fig14")->jobs(cfg);
        cells.clear();
        for (sw::SweepJob &j : jobs) {
            j.seed = opt.seed;
            SimCell c = makeCell(j.workload, j.cores, j.scale, j.mode);
            c.machine = j.machine;
            c.machine.core.mode = j.mode;
            c.machine.cores = j.cores;
            c.maxCycles = j.maxCycles;
            cells.push_back(std::move(c));
        }
        // The jobs build their own programs; set-up builds each app's
        // once to check it and to time the workloads layer.
        double built = 0.0;
        for (const fa::wl::Workload &w : fa::wl::allWorkloads()) {
            auto t0 = Clock::now();
            fa::wl::buildPrograms(w, cfg.cores, cfg.scale);
            built += secondsSince(t0);
        }
        return built;
    });

    Samples headline;
    auto plain = [&] {
        sw::SweepReport r = sw::runSweep(jobs, sw::SweepOptions{threads});
        Pass p;
        p.wallSec = r.wallSec;
        p.poolThreads = r.threads;
        for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
            const sw::SweepOutcome &o = r.outcomes[i];
            rep.attempt(cells[i].name,
                        o.run.finished ? "" : o.run.failure);
            p.jobSec.push_back(o.wallSec);
            p.cellMips.push_back(
                static_cast<double>(o.run.core.committedInsts) /
                o.wallSec / 1e6);
            p.cellModes.push_back(o.job.mode);
            p.cellWork.push_back(
                WorkCounts::of(o.run.cycles, o.run.core, o.run.mem));
        }
        addFig14Headline(headline, r);
        return p;
    };
    timedPhase(
        opt, rep, setup, plain,
        [&](std::vector<SpanLog> &logs) {
            return simPass(cells, opt, rep, threads, &logs, true);
        },
        cells.size(), PassShape::kSweep);
    headline.reportMedians(rep);
}

// --- analysis-judges ----------------------------------------------------

namespace {

/** One judge call: what it judged, its verdict and its work. */
struct JudgeCall
{
    std::string name;
    std::string error;
    double sec = 0.0;
    std::uint64_t work = 0;   ///< events checked or states explored
    std::uint64_t trans = 0;  ///< mc transitions
};

void
checkTrace(JudgeCall &c, const SimCell &cell,
           const fa::analysis::TraceRecorder &tr)
{
    c.name = "checkTso " + cell.name;
    fa::analysis::TsoCheckResult res = fa::analysis::checkTso(tr.events());
    c.work = res.eventsChecked;
    if (!res.ok)
        c.error = res.error;
    else if (c.work == 0)
        c.error = "empty trace";
}

void
analyzeTrace(JudgeCall &c, const SimCell &cell,
             const fa::analysis::TraceRecorder &tr)
{
    c.name = "race::analyze " + cell.name;
    fa::analysis::race::RaceOpts ro;
    ro.mode = cell.machine.core.mode;
    fa::analysis::race::RaceReport rr =
        fa::analysis::race::analyze(tr.events(), tr.syncEvents(), ro);
    c.work = rr.memEvents + rr.syncEvents;
    if (rr.memEvents == 0) {
        c.error = "empty trace";
        return;
    }
    // Races and reorderings are program properties, legal under TSO;
    // these three are hardware or recording faults.
    if (!rr.hardwareClean() || rr.openWindows != 0 || rr.tornRecords != 0)
        c.error = std::to_string(rr.atomicityViolations) +
            " atomicity violation(s), " + std::to_string(rr.openWindows) +
            " open lock window(s), " + std::to_string(rr.tornRecords) +
            " torn record(s)";
}

void
exploreModel(JudgeCall &c, const fa::mc::Model &model,
             const fa::mc::MemInit &init)
{
    c.name = std::string("mc::explore sb_rmw/2/") +
        fa::core::atomicsModeIdent(model.opts().mode);
    fa::mc::ExploreResult er =
        fa::mc::explore(model, init, fa::mc::ExploreOpts{});
    c.work = er.statesExplored;
    c.trans = er.transitionsTaken;
    if (!er.complete)
        c.error = "incomplete: " + er.truncatedReason;
    else if (!er.violations.empty())
        c.error = er.violations.front().kind + ": " +
            er.violations.front().detail;
}

} // namespace

void
runAnalysisJudges(const Options &opt, Report &rep)
{
    // Recorded cells: one 32-core suite app, and TPCC x8 with and
    // without fences.
    std::vector<SimCell> record = {
        makeCell("barnes", opt.smoke ? 4 : 32, opt.smoke ? 0.02 : 0.25,
                 AtomicsMode::kFreeFwd, true),
        makeCell("TPCC", 8, opt.smoke ? 0.05 : 8.0, AtomicsMode::kFenced,
                 true),
        makeCell("TPCC", 8, opt.smoke ? 0.05 : 8.0, AtomicsMode::kFreeFwd,
                 true),
    };
    const double mcScale = opt.smoke ? 0.05 : 0.2;
    std::vector<std::unique_ptr<fa::mc::Model>> models;
    fa::mc::MemInit mcInit;

    SetUp setup([&] {
        double built = 0.0;
        for (SimCell &c : record)
            built += prepare(c);
        const fa::wl::Workload &sb = findWorkload("sb_rmw");
        auto t0 = Clock::now();
        std::vector<fa::isa::Program> progs =
            fa::wl::buildPrograms(sb, 2, mcScale);
        built += secondsSince(t0);
        mcInit = sb.init ? sb.init(2, mcScale) : fa::mc::MemInit{};
        models.clear();
        for (AtomicsMode m : kModes) {
            fa::mc::ModelOpts mo;
            mo.mode = m;
            mo.masterSeed = opt.seed;
            models.push_back(std::make_unique<fa::mc::Model>(progs, mo));
        }
        return built;
    });

    // Calls in order: mc::explore per mode, then checkTso and
    // race::analyze per trace. The explorations, the largest
    // allocations, go first so that they always overlap the same way
    // and peak_rss_mb does not depend on scheduling.
    const std::size_t nRec = record.size();
    const std::size_t nMc = models.size();
    const std::size_t nJudge = nMc + 2 * nRec;

    // Record, then judge, one job per cell or call, both on the pool.
    auto pass = [&](std::vector<SpanLog> *logs) {
        auto t0 = Clock::now();
        std::vector<CellRun> runs;
        Pass p = simPass(record, opt, rep, poolWidth(), logs, false, &runs);

        std::vector<JudgeCall> calls(nJudge);
        fa::sim::sweep::Pool pool(poolWidth());
        pool.run(nJudge, [&](std::size_t k) {
            JudgeCall &c = calls[k];
            auto c0 = Clock::now();
            try {
                if (k < nMc) {
                    exploreModel(c, *models[k], mcInit);
                } else {
                    const std::size_t t = k - nMc;
                    const SimCell &cell = record[t % nRec];
                    const fa::sim::System *sys = runs[t % nRec].sys.get();
                    if (!sys || !sys->trace()) {
                        c.name = "judge " + cell.name;
                        c.error = "no recorded trace";
                    } else if (t < nRec) {
                        checkTrace(c, cell, *sys->trace());
                    } else {
                        analyzeTrace(c, cell, *sys->trace());
                    }
                }
            } catch (const fa::FatalError &e) {
                c.error = e.message;
            }
            c.sec = secondsSince(c0);
        });
        JudgeTotals &j = p.judges;
        for (std::size_t k = 0; k < nJudge; ++k) {
            const JudgeCall &c = calls[k];
            rep.attempt(c.name, c.error);
            p.jobSec.push_back(c.sec);
            if (k < nMc) {
                j.mcStates += c.work;
                j.mcTransitions += c.trans;
                j.mcSec += c.sec;
            } else if (k < nMc + nRec) {
                j.tsoEvents += c.work;
                j.tsoSec += c.sec;
            } else {
                j.raceEvents += c.work;
                j.raceSec += c.sec;
            }
        }
        p.wallSec = secondsSince(t0);
        return p;
    };
    timedPhase(
        opt, rep, setup, [&] { return pass(nullptr); },
        [&](std::vector<SpanLog> &logs) { return pass(&logs); }, nRec,
        PassShape::kJobs);
}

} // namespace perfbench
