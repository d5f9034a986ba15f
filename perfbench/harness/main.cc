/**
 * @file
 * fa_perfbench: the program that measures the repository benchmark.
 *
 *   fa_perfbench --workload litmus-modes|fig14-sweep|analysis-judges
 *                [--seed N] [--seconds S] [--trace 0|1] [--smoke]
 *
 * Prints one `name value unit` line per metric and, last, a JSON
 * object with the correctness verdict and every metric. Exits 1 when
 * any output is wrong, 2 on bad usage.
 */

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hh"
#include "common/log.hh"
#include "workloads.hh"

namespace {

int
usage(const std::string &msg)
{
    std::cerr << "fa_perfbench: " << msg << "\n"
              << "usage: fa_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n"
              << "workloads: litmus-modes fig14-sweep analysis-judges\n";
    return 2;
}

bool
parseNumber(const std::string &s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return !s.empty() && end == s.c_str() + s.size();
}

bool
parseSeed(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        std::string val = argv[++i];
        double num = 0.0;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed" && parseSeed(val, &opt.seed)) {
        } else if (arg == "--seconds" && parseNumber(val, &num) &&
                   num >= 0) {
            opt.seconds = num;
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            opt.traced = val == "1";
        } else {
            return usage("bad argument " + arg + " " + val);
        }
    }

    fa::setQuiet(true);
    perfbench::Report rep;
    try {
        if (opt.workload == "litmus-modes")
            perfbench::runLitmusModes(opt, rep);
        else if (opt.workload == "fig14-sweep")
            perfbench::runFig14Sweep(opt, rep);
        else if (opt.workload == "analysis-judges")
            perfbench::runAnalysisJudges(opt, rep);
        else
            return usage("unknown workload '" + opt.workload + "'");
    } catch (const fa::FatalError &e) {
        std::cerr << "fa_perfbench: " << e.message << "\n";
        return 1;
    }
    rep.print(std::cout);
    return rep.correct() ? 0 : 1;
}
