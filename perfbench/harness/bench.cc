#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

WorkCounts
WorkCounts::of(fa::Cycle cycles, const fa::CoreStats &core,
               const fa::MemStats &mem)
{
    WorkCounts w;
    w.cycles = cycles;
    w.committedInsts = core.committedInsts;
    w.fetchedInsts = core.fetchedInsts;
    w.squashedInsts = core.squashedInsts;
    w.watchdogTimeouts = core.watchdogTimeouts;
    w.issuedUops = core.issuedUops;
    w.transactions = mem.transactions;
    w.networkMsgs = mem.networkMsgs;
    w.invBlockedRetries = mem.invBlockedRetries;
    w.fillBlockedOnLock = mem.fillBlockedOnLock;
    return w;
}

void
WorkCounts::add(const WorkCounts &o)
{
    cycles += o.cycles;
    committedInsts += o.committedInsts;
    fetchedInsts += o.fetchedInsts;
    squashedInsts += o.squashedInsts;
    watchdogTimeouts += o.watchdogTimeouts;
    issuedUops += o.issuedUops;
    transactions += o.transactions;
    networkMsgs += o.networkMsgs;
    invBlockedRetries += o.invBlockedRetries;
    fillBlockedOnLock += o.fillBlockedOnLock;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    check(std::isfinite(value), "metric " + name + " is finite");
    entries.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Report::attempt(const std::string &what, const std::string &error)
{
    ++nAttempted;
    ++nChecks;
    if (error.empty())
        return;
    ++nFailed;
    failures.push_back(what + ": " + error);
}

void
Report::check(bool ok, const std::string &what)
{
    ++nChecks;
    if (!ok)
        failures.push_back("check failed: " + what);
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(std::ostream &os) const
{
    for (const std::string &f : failures)
        os << "FAIL " << f << "\n";
    for (const Entry &e : entries)
        os << e.name << " " << number(e.value) << " " << e.unit << "\n";
    os << "correctness.checks " << nChecks << " count\n";
    // A failed check that is not a unit of work still counts as one
    // failure, so fail_ratio is never 0 on an incorrect run.
    std::uint64_t failed = std::max<std::uint64_t>(
        nFailed, failures.empty() ? 0 : 1);
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(nAttempted, 1)
       << ", \"failed\": " << failed << ", \"metrics\": {";
    const char *sep = "";
    for (const Entry &e : entries) {
        os << sep << jsonString(e.name) << ": {\"value\": "
           << number(e.value) << ", \"unit\": " << jsonString(e.unit)
           << "}";
        sep = ", ";
    }
    os << "}}\n";
}

void
reportWorkCounts(Report &rep, const WorkCounts &w)
{
    auto per = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                static_cast<double>(den);
    };
    rep.metric("sim.cycles", static_cast<double>(w.cycles), "count");
    rep.metric("core.committed_insts",
               static_cast<double>(w.committedInsts), "count");
    rep.metric("core.fetched_per_committed",
               per(w.fetchedInsts, w.committedInsts), "ratio");
    rep.metric("core.squashed_insts",
               static_cast<double>(w.squashedInsts), "count");
    rep.metric("core.watchdog_timeouts",
               static_cast<double>(w.watchdogTimeouts), "count");
    rep.metric("core.issued_uops_per_inst",
               per(w.issuedUops, w.committedInsts), "ratio");
    rep.metric("mem.transactions", static_cast<double>(w.transactions),
               "count");
    rep.metric("mem.network_msgs", static_cast<double>(w.networkMsgs),
               "count");
    rep.metric("mem.inv_blocked_retries",
               static_cast<double>(w.invBlockedRetries), "count");
    rep.metric("mem.fill_blocked_on_lock",
               static_cast<double>(w.fillBlockedOnLock), "count");
}

} // namespace perfbench
