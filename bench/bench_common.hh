/**
 * @file
 * Shared helpers for the figure-regeneration harnesses.
 *
 * Every bench binary prints the rows/series of one table or figure
 * from the paper's evaluation, using the synthetic corpus substrate
 * (see DESIGN.md for the substitutions). Absolute values depend on
 * the corpus; the *shape* of each figure is what must match, and
 * EXPERIMENTS.md records paper-vs-measured per figure.
 *
 * Each harness calls bench::init(argc, argv) first and returns
 * bench::finish() from main. init() parses the shared flags:
 *
 *   --threads N   worker threads for the parallel hot paths
 *                 (default: RHMD_THREADS env, then hardware)
 *   --smoke       CI-sized corpus (also RHMD_SMOKE=1)
 *   --corpus P    replay feature extraction from the RHMD-CORPUS
 *                 file at P instead of executing programs (scores
 *                 and decisions are bit-identical either way; see
 *                 DESIGN.md §15). Without the flag, a key-matching
 *                 file under $RHMD_CORPUS_DIR is replayed when one
 *                 exists.
 *
 * finish() emits a machine-readable BENCH_<name>.json (wall time,
 * thread count, speedup vs the recorded serial baseline, the run
 * manifest, and every table the run printed) into
 * $RHMD_BENCH_JSON_DIR when that is set. The tables are
 * byte-identical across thread counts — the CI bench-regression job
 * diffs them between --threads 1 and --threads $(nproc) runs.
 *
 * When $RHMD_METRICS_DIR names a directory, finish() also writes
 * METRICS_<name>.json and METRICS_<name>.prom snapshots of the
 * process-wide metrics registry (see DESIGN.md §10); the nightly CI
 * job compares the Deterministic-domain metrics across thread
 * counts.
 */

#ifndef RHMD_BENCH_BENCH_COMMON_HH
#define RHMD_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/reverse_engineer.hh"
#include "corpus/cache.hh"
#include "core/rhmd.hh"
#include "ml/metrics.hh"
#include "support/csv.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/table.hh"
#include "support/tracing.hh"

namespace rhmd::bench
{

/** One printed table, captured for the JSON report. */
struct TableRecord
{
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Mutable per-binary session state behind init()/finish(). */
struct Session
{
    std::string name;          ///< binary name minus "bench_" prefix
    std::size_t threads = 1;
    bool smoke = false;
    std::uint64_t seed = 0;    ///< stamped by standardConfig()
    std::string corpusPath;    ///< --corpus replay file ("" = env/fresh)
    std::chrono::steady_clock::time_point start;
    std::vector<TableRecord> tables;
};

inline Session &
session()
{
    static Session s;
    return s;
}

/** True when running the CI-sized smoke corpus. */
inline bool
smoke()
{
    return session().smoke;
}

/**
 * Parse the shared bench flags, size the global thread pool, and
 * start the wall clock. Call first in every harness main().
 */
inline void
init(int argc, char **argv)
{
    Session &s = session();
    s.name = program_invocation_short_name;
    if (s.name.rfind("bench_", 0) == 0)
        s.name = s.name.substr(6);

    const char *smoke_env = std::getenv("RHMD_SMOKE");
    s.smoke = smoke_env != nullptr && *smoke_env != '\0' &&
              std::strcmp(smoke_env, "0") != 0;

    std::size_t threads = 0;  // 0 = RHMD_THREADS env, then hardware
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            // Strict parse: a typo like `--threads=abc` or `--threads
            // 4x` must fail fast, not silently become 0 and flip the
            // bench into env/hardware thread resolution.
            const char *text = argv[++i];
            char *end = nullptr;
            errno = 0;
            const unsigned long long parsed =
                std::strtoull(text, &end, 10);
            if (end == text || *end != '\0' || errno == ERANGE) {
                std::fprintf(stderr,
                             "%s: invalid --threads value '%s' "
                             "(expected a non-negative integer)\n"
                             "usage: %s [--threads N] [--smoke] "
                             "[--corpus FILE]\n",
                             argv[0], text, argv[0]);
                std::exit(2);
            }
            threads = static_cast<std::size_t>(parsed);
        } else if (arg == "--smoke") {
            s.smoke = true;
        } else if (arg == "--corpus" && i + 1 < argc) {
            s.corpusPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--threads N] [--smoke] [--corpus FILE]\n",
                argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         arg.c_str());
            std::exit(2);
        }
    }
    support::setGlobalThreads(threads);
    s.threads = support::globalThreads();
    s.start = std::chrono::steady_clock::now();
}

namespace detail
{

// JSON string escaping lives in support/metrics (shared with the
// registry's own exposition); keep the old name for bench callers.
using support::jsonEscape;

/**
 * The baseline file: $RHMD_BENCH_BASELINE when set, else the
 * bench/baseline.json of the source tree this binary was built from
 * (stamped by bench/CMakeLists.txt), so the lookup does not depend on
 * the working directory.
 */
inline std::string
baselinePath()
{
    const char *env = std::getenv("RHMD_BENCH_BASELINE");
    if (env != nullptr)
        return env;
#ifdef RHMD_BENCH_BASELINE_FILE
    return RHMD_BENCH_BASELINE_FILE;
#else
    return "bench/baseline.json";
#endif
}

/**
 * Look up entry @p name in the baseline file (a flat
 * {"<name>": number} object; the scan below is enough for that
 * shape). Returns a negative value when the file, the entry or a
 * parsable number is missing, with the reason in @p why when given.
 * finish() uses it for the optional serial wall-time baseline (most
 * benches have none); gates use requiredBaseline().
 */
inline double
baselineEntry(const std::string &name, std::string *why = nullptr)
{
    const std::string path = baselinePath();
    const auto missing = [&](const std::string &reason) {
        if (why != nullptr)
            *why = reason;
        return -1.0;
    };
    std::ifstream in(path);
    if (!in)
        return missing("cannot open " + path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::string key = "\"" + name + "\"";
    std::size_t pos = text.find(key);
    if (pos == std::string::npos)
        return missing("no \"" + name + "\" entry in " + path);
    pos = text.find(':', pos + key.size());
    if (pos == std::string::npos)
        return missing("malformed \"" + name + "\" entry in " + path);
    // End-pointer-validated parse: a malformed baseline entry must
    // read as "no baseline" (negative), not as a silent 0.0 that
    // turns wall-time gates and SLO floors into no-ops.
    const char *start = text.c_str() + pos + 1;
    char *end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start)
        return missing("malformed \"" + name + "\" entry in " + path);
    return value;
}

/**
 * A gate value (SLO ceiling, throughput or count floor) the bench
 * cannot run without: fatal when the file or the entry is missing or
 * the value is not positive, so a gate never goes silently unchecked.
 */
inline double
requiredBaseline(const std::string &name)
{
    std::string why;
    const double value = baselineEntry(name, &why);
    fatal_if(value < 0.0, "bench gate '", name, "' has no baseline: ",
             why, " (set RHMD_BENCH_BASELINE to override the file)");
    fatal_if(value == 0.0, "bench gate '", name, "' in ", baselinePath(),
             " is 0, which would disable the gate");
    return value;
}

} // namespace detail

/** The manifest stamped into this bench's outputs. */
inline support::RunManifest
manifest()
{
    const Session &s = session();
    support::RunManifest m;
    m.tool = "bench_" + s.name;
    m.seed = s.seed;
    m.threads = s.threads;
    m.smoke = s.smoke;
    // When the experiment replayed a corpus file, name it (and its
    // content identity) so a BENCH_*.json says which bytes produced
    // it; bench_gate.py compare refuses to diff documents whose
    // corpus hashes disagree.
    const corpus::ReplayInfo &replay = corpus::replayInfo();
    if (replay.active) {
        char hash[32];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(
                          replay.contentHash));
        m.addConfig("corpus_path", replay.path);
        m.addConfig("corpus_format_version",
                    std::to_string(replay.formatVersion));
        m.addConfig("corpus_hash", hash);
    }
    return m;
}

/**
 * Stop the clock and, when $RHMD_BENCH_JSON_DIR names a directory,
 * write BENCH_<name>.json there. When $RHMD_METRICS_DIR names a
 * directory, also snapshot the metrics registry there. Returns the
 * process exit code.
 */
inline int
finish()
{
    Session &s = session();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      s.start)
            .count();
    std::printf("\n[bench %s] wall %.3fs, %zu thread%s%s\n",
                s.name.c_str(), wall, s.threads,
                s.threads == 1 ? "" : "s", s.smoke ? ", smoke" : "");

    if (const char *metrics_dir = std::getenv("RHMD_METRICS_DIR")) {
        if (!support::writeObservabilitySnapshot(metrics_dir, s.name,
                                                 manifest()))
            return 1;
        std::printf("[metrics snapshot written to %s]\n", metrics_dir);
    }

    const char *dir = std::getenv("RHMD_BENCH_JSON_DIR");
    if (dir == nullptr)
        return 0;

    const double baseline = detail::baselineEntry(s.name);
    std::string json = "{\n";
    json += "  \"bench\": \"" + detail::jsonEscape(s.name) + "\",\n";
    json += "  \"threads\": " + std::to_string(s.threads) + ",\n";
    json += "  \"smoke\": " + std::string(s.smoke ? "true" : "false") +
            ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", wall);
    json += "  \"wall_seconds\": " + std::string(buf) + ",\n";
    if (baseline > 0.0) {
        std::snprintf(buf, sizeof(buf), "%.6f", baseline);
        json += "  \"baseline_serial_seconds\": " + std::string(buf) +
                ",\n";
        std::snprintf(buf, sizeof(buf), "%.3f", baseline / wall);
        json += "  \"speedup\": " + std::string(buf) + ",\n";
    } else {
        json += "  \"baseline_serial_seconds\": null,\n";
        json += "  \"speedup\": null,\n";
    }
    json += "  \"manifest\": " + manifest().toJson() + ",\n";
    json += "  \"tables\": [\n";
    for (std::size_t t = 0; t < s.tables.size(); ++t) {
        const TableRecord &table = s.tables[t];
        json += "    {\"headers\": [";
        for (std::size_t h = 0; h < table.headers.size(); ++h) {
            json += (h > 0 ? ", " : "");
            json += "\"" + detail::jsonEscape(table.headers[h]) + "\"";
        }
        json += "], \"rows\": [\n";
        for (std::size_t r = 0; r < table.rows.size(); ++r) {
            json += "      [";
            for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
                json += (c > 0 ? ", " : "");
                json += "\"" + detail::jsonEscape(table.rows[r][c]) +
                        "\"";
            }
            json += r + 1 < table.rows.size() ? "],\n" : "]\n";
        }
        json += t + 1 < s.tables.size() ? "    ]},\n" : "    ]}\n";
    }
    json += "  ]\n}\n";

    const std::string path =
        std::string(dir) + "/BENCH_" + s.name + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    out << json;
    std::printf("[bench json written to %s]\n", path.c_str());
    return 0;
}

/**
 * One of the shared corpus::presetConfig experiment presets, sized
 * for this run's smoke flag, with the session seed stamped and any
 * --corpus replay file applied. Benches use presets (instead of
 * ad-hoc config edits) so `rhmd-corpus generate` can produce cache
 * files whose config keys match the bench runs exactly.
 */
inline core::ExperimentConfig
benchConfig(const std::string &preset)
{
    core::ExperimentConfig config =
        corpus::presetConfig(preset, smoke());
    session().seed = config.seed;
    config.corpusPath = session().corpusPath;
    return config;
}

/**
 * The standard bench corpus (paper: 554 benign + 3000 malware;
 * --smoke shrinks it to CI size).
 */
inline core::ExperimentConfig
standardConfig()
{
    return benchConfig("standard");
}

/** Feature spec shorthand. */
inline features::FeatureSpec
spec(features::FeatureKind kind, std::uint32_t period)
{
    features::FeatureSpec s;
    s.kind = kind;
    s.period = period;
    return s;
}

/** Proxy config shorthand (single-spec attacker). */
inline core::ProxyConfig
proxyConfig(const std::string &algorithm, features::FeatureKind kind,
            std::uint32_t period, std::uint64_t seed = 7)
{
    core::ProxyConfig config;
    config.algorithm = algorithm;
    config.specs = {spec(kind, period)};
    config.seed = seed;
    return config;
}

/** Window-level ROC of a detector over a program subset. */
inline ml::RocCurve
windowRoc(const core::Hmd &detector, const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &program_idx)
{
    std::vector<const features::RawWindow *> windows;
    std::vector<int> labels;
    core::collectWindows(corpus, program_idx, detector.decisionPeriod(),
                         windows, labels);
    std::vector<double> scores;
    scores.reserve(windows.size());
    for (const auto *window : windows)
        scores.push_back(detector.windowScore(*window));
    return ml::rocCurve(scores, labels);
}

/** Print a figure banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=== %s ===\n(reproduces %s)\n\n", title.c_str(),
                paper_ref.c_str());
}

/**
 * Print a results table, record it for the BENCH_<name>.json report,
 * and, when the RHMD_CSV_DIR environment variable names a directory,
 * also write it there as "<bench>_tN.csv" for post-processing.
 */
inline void
emitTable(const Table &table)
{
    table.print(std::cout);
    session().tables.push_back({table.headers(), table.data()});
    const char *dir = std::getenv("RHMD_CSV_DIR");
    if (dir == nullptr)
        return;
    static int counter = 0;
    CsvWriter csv(table.headers());
    for (const auto &row : table.data())
        csv.addRow(row);
    const std::string path = std::string(dir) + "/" +
                             program_invocation_short_name + "_t" +
                             std::to_string(counter++) + ".csv";
    if (csv.write(path))
        std::printf("[csv written to %s]\n", path.c_str());
}

/**
 * Print and record the attacker's query budget so far: the reveng.*
 * counters (paper Sec. 4 — every program submitted to the victim is
 * one black-box query, every decision epoch one harvested label).
 * Deterministic-domain values, so the table is byte-identical across
 * thread counts and the bench-regression diff covers it.
 */
inline void
emitQueryBudget()
{
    std::printf("\nattacker query budget (cumulative this run)\n");
    Table table({"metric", "count"});
    for (const char *name :
         {"reveng.victim_programs", "reveng.victim_decisions",
          "reveng.transcripts", "reveng.proxies",
          "reveng.sweep_configs"}) {
        table.addRow({name, std::to_string(
                                support::metrics().counterValue(name))});
    }
    emitTable(table);
}

/**
 * Print and record the switching a randomized pool actually realized
 * next to what its policy configured (paper Sec. 7 — the defense is
 * the switching, so benches report it measured, not assumed). The
 * counts come from the pool's own seeded stream, so the table is
 * byte-identical across thread counts.
 */
inline void
emitRealizedSwitching(const core::Rhmd &pool)
{
    std::printf("\nrealized switching vs configured policy\n");
    const std::vector<double> realized = pool.realizedPolicy();
    const std::vector<std::size_t> &counts = pool.selectionCounts();
    Table table({"detector", "policy", "epochs", "realized"});
    for (std::size_t i = 0; i < pool.poolSize(); ++i) {
        table.addRow({pool.detectors()[i]->describe(),
                      Table::percent(pool.policy()[i]),
                      std::to_string(counts[i]),
                      Table::percent(realized[i])});
    }
    emitTable(table);
}

} // namespace rhmd::bench

#endif // RHMD_BENCH_BENCH_COMMON_HH
