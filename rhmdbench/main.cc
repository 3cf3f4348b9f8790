/**
 * @file
 * Benchmark binary. run.py builds and runs it; it can also be
 * run by hand:
 *
 *   rhmd_benchmark --workload NAME --seed N --seconds S --trace 0|1
 *                  --workdir DIR [--small]
 *
 * It prints human-readable tables and, as its last line, one
 * "RESULT {...}" JSON object with every metric it measured (name,
 * value, unit), every correctness check it ran, the output digests
 * (run.py compares them to digests.json) and the operation counts.
 * Exit codes: 0 when the run completed (the checks may still have
 * failed; run.py decides), 2 on a usage error or an unwritable work
 * directory.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/tracing.hh"
#include "workloads.hh"

using namespace rhmd;
using namespace rhmd::benchmark;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rhmd_benchmark: %s\n"
                 "usage: rhmd_benchmark --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--small]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-')
        usage((std::string("invalid value for ") + flag).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = parseUnsigned(value(), "--seed");
        } else if (arg == "--seconds") {
            const std::uint64_t s = parseUnsigned(value(), "--seconds");
            if (s == 0 || s > 600)
                usage("--seconds must be 1..600");
            opt.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::uint64_t t = parseUnsigned(value(), "--trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            opt.trace = t == 1;
        } else if (arg == "--workdir") {
            opt.workdir = value();
        } else if (arg == "--small") {
            opt.small = true;
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (opt.workload.empty() || opt.workdir.empty() || !have_seconds)
        usage("--workload, --seconds and --workdir are required");
    return opt;
}

/** Fail before any work when the work directory cannot be written. */
void
requireWritable(const std::string &dir)
{
    const std::string probe = dir + "/.write-probe";
    std::ofstream out(probe);
    out << "probe\n";
    out.close();
    if (!out) {
        std::fprintf(stderr,
                     "rhmd_benchmark: work directory '%s' is not "
                     "writable\n",
                     dir.c_str());
        std::exit(2);
    }
    std::remove(probe.c_str());
}

/** Fill the per-layer metrics from the layer times of the run. */
void
reportLayers(Run &run)
{
    Report &r = run.report;
    const LayerTimes &l = run.layers;
    r.set("trace.generate_s", l.generate, "s");
    r.set("trace.insts", static_cast<double>(l.insts), "count");
    r.set("features.extract_s", l.extract, "s");
    r.set("features.windows", static_cast<double>(l.windows), "count");
    r.set("corpus.write_s", l.corpusWrite, "s");
    r.set("corpus.open_s", l.corpusOpen, "s");
    r.set("corpus.materialize_s", l.corpusMaterialize, "s");
    r.set("corpus.replay_bytes", static_cast<double>(l.replayBytes), "B");
    for (const char *family : {"LR", "SVM", "NN", "DT", "RF"}) {
        const auto get = [](const std::map<std::string, double> &m,
                            const char *k) {
            const auto it = m.find(k);
            return it == m.end() ? 0.0 : it->second;
        };
        // The pipeline's retraining counts as LR training time; its
        // rows are not known, so the rate covers buildRhmd calls only.
        const double train = get(l.train, family);
        const double rows = get(l.trainRows, family);
        const double retrain = std::string(family) == "LR" ? l.retrain : 0.0;
        r.set(std::string("ml.train_s.") + family, train + retrain, "s");
        r.set(std::string("ml.train_rows_per_s.") + family,
              train > 0.0 ? rows / train : 0.0, "1/s");
        r.set(std::string("ml.score_ns_per_window.") + family,
              get(l.scoreNs, family), "ns/window");
    }
    r.set("core.reveng_s", l.reveng, "s");
    r.set("core.evade_rewrite_s", l.rewrite, "s");
    r.set("core.extract_evasive_s", l.extractEvasive, "s");
    r.set("core.detect_s", l.detect, "s");
    const double sites =
        static_cast<double>(l.sitesAdmitted + l.sitesRejected);
    r.set("core.sites_admitted_ratio",
          sites > 0.0 ? static_cast<double>(l.sitesAdmitted) / sites : 0.0,
          "ratio");
    r.set("core.sites_total", sites, "count");
    r.set("pool.busy_share", l.poolWall > 0.0 ? l.poolBusy / l.poolWall : 0.0,
          "ratio");
    r.set("pool.tasks", static_cast<double>(l.poolTasks), "count");
    const double untraced = median(run.studyUntraced);
    const double traced = median(run.studyTraced);
    r.set("bench.trace_overhead_pct",
          untraced > 0.0 && traced > 0.0 ? (traced / untraced - 1.0) * 100.0
                                         : 0.0,
          "%");
}

/**
 * Print where the last traced study repetition spent its wall time,
 * one row per layer group (traced study workloads).
 */
void
printLayerShares(const Run &run)
{
    if (run.studyTraced.empty())
        return;
    const LayerTimes &l = run.layers;
    const double wall = run.studyTraced.back();
    double train = 0.0;
    for (const auto &[family, seconds] : l.train)
        train += seconds;
    const std::pair<const char *, double> rows[] = {
        {"trace+uarch+features (features.extract_s)", l.extract},
        {"core.extract_evasive_s", l.extractEvasive},
        {"ml training (ml.train_s.*)", train},
        {"core.reveng_s", l.reveng},
        {"core.evade_rewrite_s", l.rewrite},
        {"core.detect_s", l.detect},
        {"corpus.open_s + corpus.materialize_s",
         l.corpusOpen + l.corpusMaterialize},
    };
    std::printf("\nshare of the traced study repetition (%.3f s)\n", wall);
    double covered = 0.0;
    for (const auto &[name, seconds] : rows) {
        std::printf("%-45s %8.3f s %6.1f%%\n", name, seconds,
                    100.0 * seconds / wall);
        covered += seconds;
    }
    std::printf("%-45s %8.3f s %6.1f%%\n", "other", wall - covered,
                100.0 * (wall - covered) / wall);
}

/** Print the span tree as self time per path (traced runs). */
void
printSpans()
{
    const auto spans = support::TraceRegistry::instance().snapshot();
    std::printf("\nspan self time (seconds; self = total - children)\n");
    std::printf("%-60s %8s %10s %10s\n", "path", "count", "total_s",
                "self_s");
    for (const auto &[path, stats] : spans) {
        double children = 0.0;
        const std::string prefix = path + "/";
        for (const auto &[other, other_stats] : spans) {
            if (other.rfind(prefix, 0) == 0 &&
                other.find('/', prefix.size()) == std::string::npos)
                children += other_stats.seconds;
        }
        std::printf("%-60s %8llu %10.4f %10.4f\n", path.c_str(),
                    static_cast<unsigned long long>(stats.count),
                    stats.seconds, stats.seconds - children);
    }
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(const Run &run)
{
    std::string json = "{\"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : run.report.metrics) {
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + jsonNumber(m.value) + ", \"unit\": \"" +
                m.unit + "\"}";
        first = false;
    }
    json += "}, \"checks\": {";
    first = true;
    for (const auto &[name, ok] : run.report.checks) {
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": " + (ok ? "true" : "false");
        first = false;
    }
    json += "}, \"digests\": {";
    first = true;
    for (const auto &[name, hex] : run.digests) {
        json += std::string(first ? "" : ", ") + "\"" + name + "\": \"" +
                hex + "\"";
        first = false;
    }
    json += "}, \"attempted\": " + std::to_string(run.report.attempted) +
            ", \"failed\": " + std::to_string(run.report.failed) + "}";
    std::printf("RESULT %s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    run.opt = parseArgs(argc, argv);
    requireWritable(run.opt.workdir);

    // A fixed study thread count keeps runs comparable across hosts
    // with more cores; the serving phase caps its own threads.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    support::setGlobalThreads(std::min(4u, hw));
    setTracing(run.opt.trace);

    if (run.opt.workload == "study_fresh")
        runStudyFresh(run);
    else if (run.opt.workload == "study_replay")
        runStudyReplay(run);
    else if (run.opt.workload == "serve_open_loop")
        runServe(run, false);
    else if (run.opt.workload == "serve_retrain")
        runServe(run, true);
    else
        usage(("unknown workload '" + run.opt.workload + "'").c_str());

    if (run.opt.trace) {
        probePerInstruction(run.report);
        reportLayers(run);
        printLayerShares(run);
        printSpans();
    }
    printResult(run);
    return 0;
}
