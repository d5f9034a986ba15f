#include "tracing.hh"

#include <algorithm>
#include <string>

#include "bench.hh"

namespace perfbench {

std::int64_t
stampNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::int32_t
SpanLog::add(SpanKind kind, std::int64_t start, std::int64_t end,
             std::int32_t parent)
{
    log.push_back({start, end, parent, cellId, kind});
    return static_cast<std::int32_t>(log.size() - 1);
}

std::int32_t
SpanLog::open(SpanKind kind, std::int32_t parent)
{
    return add(kind, stampNs(), 0, parent);
}

void
SpanLog::close(std::int32_t idx)
{
    log[static_cast<std::size_t>(idx)].end = stampNs();
}

fa::sim::RunOutcome
runTraced(fa::sim::System &sys, fa::Cycle maxCycles, fa::Cycle period,
          SpanLog &log, std::int32_t parent)
{
    fa::mem::MemSystem &mem = sys.mem();
    std::vector<fa::core::Core *> cores;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        cores.push_back(&sys.coreAt(c));
    const fa::Cycle window = sys.config().progressWindow;

    fa::sim::RunOutcome out;
    fa::Cycle now = 0;
    fa::Cycle lastProgress = 0;
    // System::run's checks after each stepped cycle; true = stop.
    auto stop = [&] {
        if (sys.allHalted()) {
            out.finished = true;
            return true;
        }
        for (const fa::core::Core *c : cores) {
            if (c->halted() || c->lastCommitCycle() > lastProgress)
                lastProgress =
                    std::max(lastProgress, c->lastCommitCycle());
        }
        if (now - lastProgress > window) {
            out.failure = "no core committed for " +
                std::to_string(window) + " cycles";
            return true;
        }
        return false;
    };
    while (now < maxCycles) {
        if (now % period != 0) {
            mem.tick(now);
            for (fa::core::Core *c : cores)
                c->tick(now);
            ++now;
            if (stop())
                break;
            continue;
        }
        std::int64_t t0 = stampNs();
        std::int64_t te = stampNs();
        mem.tick(now);
        std::int64_t t1 = stampNs();
        for (fa::core::Core *c : cores)
            c->tick(now);
        std::int64_t t2 = stampNs();
        ++now;
        bool done = stop();
        std::int64_t t3 = stampNs();
        std::int32_t cyc = log.add(SpanKind::kCycle, t0, t3, parent);
        log.add(SpanKind::kTimer, t0, te, cyc);
        log.add(SpanKind::kMemTick, te, t1, cyc);
        log.add(SpanKind::kCoreTick, t1, t2, cyc);
        log.add(SpanKind::kLoop, t2, t3, cyc);
        if (done)
            break;
    }
    if (!out.finished && out.failure.empty())
        out.failure = "cycle limit reached";
    out.cycles = now;
    return out;
}

void
LayerTimes::add(const LayerTimes &o)
{
    sampledCycles += o.sampledCycles;
    cycleNs += o.cycleNs;
    memNs += o.memNs;
    coreNs += o.coreNs;
    estCoreNs += o.estCoreNs;
    estMemNs += o.estMemNs;
    timerCostNs.insert(timerCostNs.end(), o.timerCostNs.begin(),
                       o.timerCostNs.end());
    timerResidualNs.insert(timerResidualNs.end(),
                           o.timerResidualNs.begin(),
                           o.timerResidualNs.end());
}

LayerTimes
layerTimes(const SpanLog &log, fa::Cycle cellCycles)
{
    const std::vector<Span> &spans = log.spans();
    LayerTimes t;

    std::vector<double> empty;
    for (const Span &s : spans)
        if (s.kind == SpanKind::kTimer)
            empty.push_back(static_cast<double>(s.end - s.start));
    if (empty.empty())
        return t;
    const double emptyNs = median(empty);
    // What the subtraction leaves, without the outer 5% on each side
    // (interrupts and preemption hit real spans at random too; they
    // are not timer bias).
    std::sort(empty.begin(), empty.end());
    const std::size_t cut = empty.size() / 20;
    double left = 0.0;
    for (std::size_t i = cut; i < empty.size() - cut; ++i)
        left += empty[i] - emptyNs;
    t.timerCostNs.push_back(emptyNs);
    t.timerResidualNs.push_back(
        left / static_cast<double>(empty.size() - 2 * cut));

    // Children follow their parent in the log, so one backward pass
    // sees every child before its parent.
    std::vector<double> childRaw(spans.size(), 0.0);
    std::vector<double> childFixed(spans.size(), 0.0);
    std::vector<bool> hasChild(spans.size(), false);
    for (std::size_t i = spans.size(); i-- > 0;) {
        const Span &s = spans[i];
        double raw = static_cast<double>(s.end - s.start);
        double fixed = hasChild[i] ? raw - childRaw[i] + childFixed[i]
                                   : raw - emptyNs;
        if (s.parent >= 0) {
            auto p = static_cast<std::size_t>(s.parent);
            hasChild[p] = true;
            childRaw[p] += raw;
            childFixed[p] += fixed;
        }
        switch (s.kind) {
        case SpanKind::kCycle:
            ++t.sampledCycles;
            t.cycleNs += fixed;
            break;
        case SpanKind::kMemTick:
            t.memNs += fixed;
            break;
        case SpanKind::kCoreTick:
            t.coreNs += fixed;
            break;
        default:
            break;
        }
    }
    double scale = static_cast<double>(cellCycles) /
        static_cast<double>(t.sampledCycles);
    t.estCoreNs = t.coreNs * scale;
    t.estMemNs = t.memNs * scale;
    return t;
}

} // namespace perfbench
