#include "cells.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/presets.hh"

namespace perfbench {

const fa::wl::Workload &
findWorkload(const std::string &name)
{
    const fa::wl::Workload *w = fa::wl::findWorkload(name);
    if (!w)
        fa::fatal("unknown workload '%s'", name.c_str());
    return *w;
}

SimCell
makeCell(const std::string &workload, unsigned threads, double scale,
         fa::core::AtomicsMode mode, bool recordTrace)
{
    SimCell c;
    c.w = &findWorkload(workload);
    c.name = workload + "/" + std::to_string(threads) + "/" +
        fa::core::atomicsModeIdent(mode);
    c.threads = threads;
    c.scale = scale;
    c.machine = fa::sim::presets::paperIcelake(threads);
    c.machine.core.mode = mode;
    c.machine.recordMemTrace = recordTrace;
    return c;
}

double
prepare(SimCell &cell)
{
    auto t0 = Clock::now();
    cell.progs = fa::wl::buildPrograms(*cell.w, cell.threads, cell.scale);
    double built = secondsSince(t0);
    cell.init = cell.w->init ? cell.w->init(cell.threads, cell.scale)
                             : fa::sim::MemInit{};
    return built;
}

CellRun
runCell(const SimCell &cell, std::uint64_t seed, SpanLog *log)
{
    CellRun r;
    std::int32_t span = log ? log->open(SpanKind::kCell) : -1;
    auto t0 = Clock::now();
    r.sys = std::make_unique<fa::sim::System>(cell.machine, cell.progs,
                                              seed);
    r.sys->initMemory(cell.init);
    r.out = log ? runTraced(*r.sys, cell.maxCycles, kTracePeriod, *log, span)
                : r.sys->run(cell.maxCycles);
    r.wallSec = secondsSince(t0);
    if (log)
        log->close(span);
    r.work = WorkCounts::of(r.out.cycles, r.sys->coreTotals(),
                            r.sys->mem().stats);
    if (!r.out.finished)
        r.error = r.out.failure;
    else if (cell.w->verify)
        r.error = cell.w->verify(*r.sys, cell.threads, cell.scale);
    return r;
}

WorkCounts
Pass::totalWork() const
{
    WorkCounts total;
    for (const WorkCounts &w : cellWork)
        total.add(w);
    return total;
}

void
Samples::add(const std::string &name, double value,
             const std::string &unit)
{
    auto [it, fresh] = values.try_emplace(name);
    if (fresh)
        order.push_back(name);
    it->second.first.push_back(value);
    it->second.second = unit;
}

void
Samples::reportMedians(Report &rep) const
{
    for (const std::string &name : order) {
        const auto &[v, unit] = values.at(name);
        rep.metric(name, median(v), unit);
    }
}

void
addLayerSamples(Samples &s, const Pass &plain, const Pass &traced)
{
    const LayerTimes &L = traced.layers;
    const WorkCounts work = plain.totalWork();
    const double sampled = static_cast<double>(L.sampledCycles);
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    s.add("sim.ns_per_cycle", ratio(L.cycleNs, sampled), "ns");
    for (fa::core::AtomicsMode m : kModes) {
        std::vector<double> mips;
        for (std::size_t i = 0; i < plain.cellMips.size(); ++i)
            if (plain.cellModes[i] == m)
                mips.push_back(plain.cellMips[i]);
        s.add(std::string("sim.mips.") + fa::core::atomicsModeIdent(m),
              geomean(mips), "MIPS");
    }
    s.add("core.tick_ns_per_cycle", ratio(L.coreNs, sampled), "ns");
    s.add("core.ns_per_inst",
          ratio(L.estCoreNs, static_cast<double>(work.committedInsts)),
          "ns");
    s.add("core.share", ratio(L.coreNs, L.cycleNs), "ratio");
    s.add("mem.tick_ns_per_cycle", ratio(L.memNs, sampled), "ns");
    s.add("mem.ns_per_txn",
          ratio(L.estMemNs, static_cast<double>(work.transactions)),
          "ns");
    s.add("mem.share", ratio(L.memNs, L.cycleNs), "ratio");

    double busy = 0.0;
    for (double j : plain.jobSec)
        busy += j;
    double longest = plain.jobSec.empty()
        ? 0.0
        : *std::max_element(plain.jobSec.begin(), plain.jobSec.end());
    s.add("sweep.pool_efficiency",
          ratio(busy, plain.poolThreads * plain.wallSec), "ratio");
    s.add("sweep.job_s_p50", percentile(plain.jobSec, 50.0), "s");
    s.add("sweep.job_s_p90", percentile(plain.jobSec, 90.0), "s");
    s.add("sweep.tail_ratio", ratio(longest, plain.wallSec), "ratio");
    s.add("trace.overhead_pct",
          100.0 * (ratio(traced.wallSec, plain.wallSec) - 1.0), "%");
    s.add("trace.timer_cost_ns", median(L.timerCostNs), "ns");
    s.add("trace.timer_residual_ns", median(L.timerResidualNs), "ns");
}

void
checkSameWork(Report &rep, const Pass &first, const Pass &other,
              const std::string &what)
{
    rep.check(first.cellWork == other.cellWork,
              what + " reproduces the simulated cycles and counters");
    rep.check(first.judges.sameWork(other.judges),
              what + " reproduces the judges' state and event counts");
}

} // namespace perfbench
