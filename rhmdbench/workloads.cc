/**
 * @file
 * The four workloads and their shared set-up/repetition helpers.
 *
 * study_fresh regenerates the Fig. 16 study from the trace layer up:
 * fresh execution and extraction of the standard population, LR pools,
 * NN proxies, least-weight evasion at several injection counts and
 * fresh re-extraction of every evasive variant. study_replay replays
 * the same population from an RHMD-CORPUS file written during set-up
 * and trains all five classifier families, so the timed phase runs no
 * trace, uarch or feature code at all. serve_open_loop and
 * serve_retrain build the serve-preset population and its LR pool in
 * set-up, so their timed phase is serving alone.
 */

#include <algorithm>
#include <cstdio>

#include "core/evasion.hh"
#include "core/reverse_engineer.hh"
#include "corpus/cache.hh"
#include "corpus/reader.hh"
#include "corpus/writer.hh"
#include "features/extractor.hh"
#include "serve.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "trace/generator.hh"
#include "workloads.hh"

namespace rhmd::benchmark
{

namespace
{

using features::FeatureKind;

/** Study repetitions per run: the median of these is study_s. */
std::size_t
studyReps(const Options &opt)
{
    return opt.small ? 1 : 5;
}

/** Set-up repetitions per run: the median of these is setup_s. */
std::size_t
setupReps(const Options &opt, std::size_t full)
{
    return opt.small ? 2 : full;
}

/**
 * Run @p body studyReps() times and record study_s as the median.
 * @p setup runs untimed before each repetition, so set-up samples are
 * spread over the run like the study's. Traced runs alternate
 * untraced and traced repetitions so the span cost shows as the
 * difference of the two medians.
 */
template <typename Setup, typename Body>
void
repeatStudy(Run &run, Setup &&setup, Body &&body)
{
    const std::size_t reps = studyReps(run.opt);
    const std::size_t threads = support::globalThreads();
    for (std::size_t r = 0; r < (run.opt.trace ? 2 * reps : reps); ++r) {
        const bool traced = run.opt.trace && r % 2 == 1;
        setTracing(traced);
        setup();
        run.layers = LayerTimes{};
        const double busy0 = poolTaskSeconds();
        const std::uint64_t tasks0 = counter("pool.tasks");
        const double t0 = now();
        {
            const Span span("study");
            body();
        }
        const double wall = now() - t0;
        run.layers.poolBusy = poolTaskSeconds() - busy0;
        run.layers.poolWall = wall * static_cast<double>(threads);
        run.layers.poolTasks = counter("pool.tasks") - tasks0;
        (traced ? run.studyTraced : run.studyUntraced).push_back(wall);
    }
    setTracing(run.opt.trace);
    run.report.set("study_s", median(run.studyUntraced), "s");
}

/** Generate the population's programs, timed into layers.generate. */
std::vector<trace::Program>
generatePrograms(Run &run, const core::ExperimentConfig &config)
{
    const Span span("trace.generate");
    const double t0 = now();
    std::vector<trace::Program> programs =
        trace::ProgramGenerator(core::generatorConfigOf(config))
            .generateCorpus();
    run.layers.generate = now() - t0;
    return programs;
}

/** Execute and extract @p programs, timed into layers.extract. */
features::FeatureCorpus
extract(Run &run, const std::vector<trace::Program> &programs,
        const features::ExtractConfig &config)
{
    const Span span("features.extract");
    const double t0 = now();
    features::FeatureCorpus corpus = features::extractCorpus(programs, config);
    run.layers.extract += now() - t0;
    run.layers.insts += programs.size() * config.traceInsts;
    for (const features::ProgramFeatures &prog : corpus.programs)
        for (const auto &[period, windows] : prog.byPeriod)
            run.layers.windows += windows.size();
    return corpus;
}

/** The Fig. 16 pool shapes: 2 or 3 feature kinds, 1 or 2 periods. */
std::vector<features::FeatureSpec>
fig16Specs(std::size_t n_features, bool two_periods)
{
    const FeatureKind kinds[] = {FeatureKind::Instructions,
                                 FeatureKind::Memory,
                                 FeatureKind::Architectural};
    std::vector<features::FeatureSpec> specs;
    for (std::size_t f = 0; f < n_features; ++f)
        specs.push_back(spec(kinds[f], 10000));
    if (two_periods)
        for (std::size_t f = 0; f < n_features; ++f)
            specs.push_back(spec(kinds[f], 5000));
    return specs;
}

/**
 * Rewrite @p idx's programs against @p proxy and re-extract them,
 * with the rewrite and the extraction timed as separate layers.
 */
std::vector<features::ProgramFeatures>
evade(Run &run, const std::vector<trace::Program> &programs,
      const std::vector<std::size_t> &idx, const core::EvasionPlan &plan,
      const core::Hmd *proxy, const features::ExtractConfig &config)
{
    struct Rewritten
    {
        trace::Program program;
        core::EvasionAudit audit;
    };
    std::vector<Rewritten> rewritten;
    {
        const Span span("core.evade_rewrite");
        const double t0 = now();
        rewritten = support::parallelMap<Rewritten>(
            idx.size(), [&](std::size_t i) {
                Rewritten r;
                r.program = core::evadeRewrite(programs[idx[i]], plan,
                                               proxy, &r.audit);
                return r;
            });
        run.layers.rewrite += now() - t0;
    }
    std::vector<trace::Program> variants;
    variants.reserve(rewritten.size());
    for (Rewritten &r : rewritten) {
        run.layers.sitesAdmitted += r.audit.admittedSites;
        run.layers.sitesRejected += r.audit.rejectedSites;
        variants.push_back(std::move(r.program));
    }
    const Span span("core.extract_evasive");
    const double t0 = now();
    features::FeatureCorpus evasive = features::extractCorpus(variants, config);
    run.layers.extractEvasive += now() - t0;
    run.layers.insts += variants.size() * config.traceInsts;
    return std::move(evasive.programs);
}

double
detectionRate(Run &run, core::Detector &detector,
              const std::vector<features::ProgramFeatures> &programs)
{
    const Span span("core.detect");
    const double t0 = now();
    const double rate = core::Experiment::detectionRate(detector, programs);
    run.layers.detect += now() - t0;
    return rate;
}

/** Program-level detection rate over corpus members @p idx. */
double
detectionRateOn(Run &run, core::Detector &detector,
                const features::FeatureCorpus &corpus,
                const std::vector<std::size_t> &idx)
{
    const Span span("core.detect");
    const double t0 = now();
    std::size_t flagged = 0;
    for (std::size_t i : idx)
        flagged += static_cast<std::size_t>(
            detector.programDecision(corpus.programs[i]));
    run.layers.detect += now() - t0;
    return static_cast<double>(flagged) / static_cast<double>(idx.size());
}

std::vector<const features::ProgramFeatures *>
programsOf(const features::FeatureCorpus &corpus,
           const std::vector<std::size_t> &idx)
{
    std::vector<const features::ProgramFeatures *> out;
    for (std::size_t i : idx)
        out.push_back(&corpus.programs[i]);
    return out;
}

/** Record the digest of @p name, checking every repetition agrees. */
void
pinDigest(Run &run, const std::string &name, const std::string &hex)
{
    const auto [it, inserted] = run.digests.try_emplace(name, hex);
    run.report.check("repetitions_identical", inserted || it->second == hex,
                     name + " differs between repetitions");
}

/** The study workloads' serving phase over the study's own pool. */
void
serveStudyPool(Run &run, const features::FeatureCorpus &corpus,
               const features::SplitIndices &split,
               std::shared_ptr<core::Rhmd> pool)
{
    ServeInputs inputs;
    inputs.corpus = &corpus;
    inputs.gateIdx = split.attackerTest;
    inputs.pool = std::move(pool);
    inputs.traffic = programsOf(corpus, split.attackerTest);
    const std::unique_ptr<serve::DetectionService> service =
        startService(inputs);
    ServePlan plan;
    plan.seconds = 0.5 * run.opt.seconds;
    plan.workdir = run.opt.workdir;
    plan.perLayer = run.opt.trace;
    plan.seed = run.opt.seed;
    runServePhase(inputs, plan, *service, run.report);
}

} // namespace

void
runStudyFresh(Run &run)
{
    const core::ExperimentConfig config =
        corpus::presetConfig("standard", run.opt.small);
    const features::ExtractConfig extract_config =
        core::extractConfigOf(config);

    // Set-up: program generation only; everything downstream of the
    // program bodies is the timed study. A generation takes about a
    // tenth of a second, so several run before every study repetition
    // and setup_s is the median over the whole run.
    std::vector<trace::Program> programs;
    std::vector<double> setup;
    const auto generate = [&] {
        for (std::size_t r = 0; r < setupReps(run.opt, 3); ++r) {
            const Span span("setup");
            const double t0 = now();
            programs = generatePrograms(run, config);
            setup.push_back(now() - t0);
        }
    };

    features::FeatureCorpus corpus;
    features::SplitIndices split;
    std::shared_ptr<core::Rhmd> served_pool;
    std::unique_ptr<core::Hmd> served_proxy;
    const std::size_t counts[] = {0, 1, 5, 10};
    repeatStudy(run, generate, [&] {
        corpus = extract(run, programs, extract_config);
        split = features::stratifiedSplit(corpus, config.seed ^ 0x5117ULL);
        const std::vector<std::size_t> test_mal =
            malwareOf(corpus, split.attackerTest);
        Digest table;
        for (std::size_t p = 0; p < 4; ++p) {
            const std::vector<features::FeatureSpec> specs =
                fig16Specs(2 + p % 2, p >= 2);
            std::shared_ptr<core::Rhmd> pool =
                trainPool(run.layers, "LR", specs, corpus,
                          split.victimTrain, 61 + p);
            core::ProxyConfig proxy_config;
            proxy_config.algorithm = "NN";
            proxy_config.specs = {spec(FeatureKind::Instructions, 10000)};
            std::unique_ptr<core::Hmd> proxy;
            {
                const Span span("core.reveng");
                const double t0 = now();
                proxy = core::buildProxy(*pool, corpus, split.attackerTrain,
                                         proxy_config);
                run.layers.reveng += now() - t0;
            }
            for (std::size_t count : counts) {
                core::EvasionPlan plan;
                plan.strategy = core::EvasionStrategy::LeastWeight;
                plan.level = trace::InjectLevel::Block;
                plan.count = count;
                table.f64(detectionRate(
                    run, *pool,
                    evade(run, programs, test_mal, plan, proxy.get(),
                          extract_config)));
            }
            if (p == 3) {
                served_pool = std::move(pool);
                served_proxy = std::move(proxy);
            }
        }
        Digest corpus_digest;
        for (const features::ProgramFeatures &prog : corpus.programs)
            corpus_digest.program(prog);
        pinDigest(run, "corpus_windows", corpus_digest.hex());
        pinDigest(run, "fig16_table", table.hex());
    });
    run.report.set("setup_s", median(setup), "s");
    run.layers.generate = median(setup);
    run.report.attempted += studyReps(run.opt) * 16;

    const std::vector<const features::RawWindow *> probe =
        windowsOf(corpus, split.attackerTest, 10000);
    run.digests["pool_models"] = poolDigest(*served_pool, probe);
    timeScoring(run.layers, "LR", served_pool->detectors(), probe);
    {
        std::vector<std::unique_ptr<core::Hmd>> proxy;
        proxy.push_back(std::move(served_proxy));
        timeScoring(run.layers, "NN", proxy, probe);
    }

    serveStudyPool(run, corpus, split, served_pool);
}

void
runStudyReplay(Run &run)
{
    const core::ExperimentConfig config =
        corpus::presetConfig("standard", run.opt.small);
    const features::ExtractConfig extract_config =
        core::extractConfigOf(config);
    const std::string path = run.opt.workdir + "/study_replay.rhmdc";

    // Set-up: generate, extract and write the corpus file the study
    // replays, once before every study repetition, so setup_s is the
    // median over the whole run. The programs stay for the fresh
    // re-extraction check.
    std::vector<trace::Program> programs;
    std::vector<double> setup;
    std::vector<double> generate_s;
    std::vector<double> write_s;
    std::uint64_t content_hash = 0;
    const auto write_corpus = [&] {
        for (std::size_t r = 0; r < setupReps(run.opt, 1); ++r) {
            const Span span("setup");
            const double t0 = now();
            programs = generatePrograms(run, config);
            generate_s.push_back(run.layers.generate);
            const features::FeatureCorpus fresh =
                extract(run, programs, extract_config);
            const Span write_span("corpus.write");
            const double t_write = now();
            auto writer = corpus::CorpusWriter::create(
                path, corpus::configKey(config), extract_config.periods);
            run.report.check("corpus_written", writer.isOk(),
                             writer.status().toString());
            if (!writer.isOk())
                return;
            bool appended = true;
            for (const features::ProgramFeatures &prog : fresh.programs)
                appended = appended && writer->append(prog).isOk();
            appended = appended && writer->finalize().isOk();
            run.report.check("corpus_written", appended, path);
            write_s.push_back(now() - t_write);
            content_hash = writer->contentHash();
            Digest d;
            d.u64(content_hash);
            pinDigest(run, "corpus_content_hash", d.hex());
            setup.push_back(now() - t0);
        }
    };

    const char *families[] = {"LR", "SVM", "NN", "DT", "RF"};
    std::vector<features::FeatureSpec> specs;
    for (FeatureKind kind : {FeatureKind::Instructions, FeatureKind::Memory,
                             FeatureKind::Architectural})
        for (std::uint32_t period : {10000u, 5000u})
            specs.push_back(spec(kind, period));

    features::FeatureCorpus corpus;
    features::SplitIndices split;
    std::vector<std::shared_ptr<core::Rhmd>> pools;
    repeatStudy(run, write_corpus, [&] {
        pools.clear();
        {
            const Span span("corpus.open");
            const double t0 = now();
            auto reader = corpus::CorpusReader::open(path);
            run.layers.corpusOpen = now() - t0;
            run.report.check("corpus_replayed",
                             reader.isOk() &&
                                 reader->configKey() ==
                                     corpus::configKey(config) &&
                                 reader->contentHash() == content_hash,
                             reader.isOk() ? path
                                           : reader.status().toString());
            if (!reader.isOk())
                return;
            const Span materialize_span("corpus.materialize");
            const double t1 = now();
            corpus = reader->materialize();
            run.layers.corpusMaterialize = now() - t1;
            run.layers.replayBytes = reader->fileBytes();
        }
        split = features::stratifiedSplit(corpus, config.seed ^ 0x5117ULL);
        const std::vector<std::size_t> test_mal =
            malwareOf(corpus, split.attackerTest);
        const std::vector<std::size_t> test_ben =
            benignOf(corpus, split.attackerTest);
        Digest table;
        for (std::size_t f = 0; f < std::size(families); ++f) {
            std::shared_ptr<core::Rhmd> pool =
                trainPool(run.layers, families[f], specs, corpus,
                          split.victimTrain, 71 + f);
            table.f64(detectionRateOn(run, *pool, corpus, test_mal));
            table.f64(detectionRateOn(run, *pool, corpus, test_ben));
            pools.push_back(std::move(pool));
        }
        std::vector<core::ProxyConfig> sweep;
        for (const char *algorithm : {"LR", "DT"})
            for (FeatureKind kind : {FeatureKind::Instructions,
                                     FeatureKind::Memory,
                                     FeatureKind::Architectural}) {
                core::ProxyConfig pc;
                pc.algorithm = algorithm;
                pc.specs = {spec(kind, 10000)};
                sweep.push_back(pc);
            }
        {
            const Span span("core.reveng");
            const double t0 = now();
            for (double agreement :
                 core::sweepProxyConfigs(*pools[0], corpus,
                                         split.attackerTrain,
                                         split.attackerTest, sweep))
                table.f64(agreement);
            run.layers.reveng += now() - t0;
        }
        pinDigest(run, "families_table", table.hex());
    });
    run.report.set("setup_s", median(setup), "s");
    run.layers.generate = median(generate_s);
    run.layers.corpusWrite = median(write_s);
    run.report.attempted += studyReps(run.opt) * (2 * std::size(families) + 1);

    // The replayed windows must be bit-identical to a fresh execution
    // of the same programs: re-extract a seeded sample and compare.
    {
        const Span span("check.reextract");
        Rng rng(run.opt.seed ^ 0x5a3c1e);
        const std::size_t sample = run.opt.small ? 4 : 8;
        std::size_t mismatched = 0;
        for (std::size_t s = 0; s < sample; ++s) {
            const std::size_t i = rng.below(programs.size());
            const features::ProgramFeatures fresh =
                features::extractProgram(programs[i], extract_config);
            for (std::uint32_t period : extract_config.periods) {
                const auto &a = fresh.windows(period);
                const auto &b = corpus.programs[i].windows(period);
                bool same = a.size() == b.size();
                for (std::size_t w = 0; same && w < a.size(); ++w)
                    same = sameWindow(a[w], b[w]);
                mismatched += same ? 0 : 1;
            }
        }
        run.report.check("replay_matches_fresh_extraction", mismatched == 0,
                         std::to_string(mismatched) + " program periods");
    }

    const std::vector<const features::RawWindow *> probe =
        windowsOf(corpus, split.attackerTest, 10000);
    Digest models;
    for (std::size_t f = 0; f < pools.size(); ++f) {
        models.str(poolDigest(*pools[f], probe));
        timeScoring(run.layers, families[f], pools[f]->detectors(), probe);
    }
    run.digests["pool_models"] = models.hex();
    std::remove(path.c_str());

    serveStudyPool(run, corpus, split, pools[0]);
}

void
runServe(Run &run, bool retrain)
{
    const core::ExperimentConfig config =
        corpus::presetConfig("serve", run.opt.small);
    const features::ExtractConfig extract_config =
        core::extractConfigOf(config);
    const std::vector<features::FeatureSpec> specs = {
        spec(FeatureKind::Instructions, 10000),
        spec(FeatureKind::Memory, 10000),
        spec(FeatureKind::Architectural, 5000)};

    // Everything the service needs, rebuilt by every set-up
    // repetition. The service is declared last so it stops before the
    // programs its requests point into are destroyed.
    struct Deployment
    {
        std::vector<trace::Program> programs;
        features::FeatureCorpus corpus;
        features::SplitIndices split;
        std::vector<features::ProgramFeatures> evasive;
        ServeInputs inputs;
        std::unique_ptr<serve::DetectionService> service;
    };
    std::unique_ptr<Deployment> d;
    std::vector<double> setup;
    for (std::size_t r = 0; r < setupReps(run.opt, 3); ++r) {
        d.reset();
        const Span span("setup");
        const double t0 = now();
        d = std::make_unique<Deployment>();
        d->programs = generatePrograms(run, config);
        d->corpus = extract(run, d->programs, extract_config);
        d->split = features::stratifiedSplit(d->corpus,
                                             config.seed ^ 0x5117ULL);
        ServeInputs &in = d->inputs;
        in.corpus = &d->corpus;
        in.trainIdx = d->split.victimTrain;
        in.gateIdx = d->split.attackerTest;
        in.specs = specs;
        in.pool = trainPool(run.layers, "LR", specs, d->corpus,
                            d->split.victimTrain, 2017);
        in.traffic = programsOf(d->corpus, d->split.attackerTest);
        if (retrain) {
            // The attacker's turn happens before traffic starts: an LR
            // proxy of the serving pool and weighted-injection variants
            // of the attacker-test malware against it.
            core::ProxyConfig proxy_config;
            proxy_config.algorithm = "LR";
            proxy_config.specs = {spec(FeatureKind::Instructions, 10000)};
            proxy_config.seed = 8;
            const std::unique_ptr<core::Hmd> proxy = core::buildProxy(
                *in.pool, d->corpus, d->split.attackerTrain, proxy_config);
            core::EvasionPlan plan;
            plan.strategy = core::EvasionStrategy::Weighted;
            plan.count = 6;
            plan.seed = 100;
            d->evasive = evade(run, d->programs,
                               malwareOf(d->corpus, d->split.attackerTest),
                               plan, proxy.get(), extract_config);
            for (const features::ProgramFeatures &prog : d->evasive)
                in.evasive.push_back(&prog);
        }
        d->service = startService(in);
        setup.push_back(now() - t0);
    }
    run.report.set("setup_s", median(setup), "s");

    // Only set-up generated, extracted and trained: the timed phase's
    // layer times start from zero.
    const double generate_s = run.layers.generate;
    run.layers = LayerTimes{};
    run.layers.generate = generate_s;

    Digest corpus_digest;
    for (const features::ProgramFeatures &prog : d->corpus.programs)
        corpus_digest.program(prog);
    run.digests["corpus_windows"] = corpus_digest.hex();
    const std::vector<const features::RawWindow *> probe =
        windowsOf(d->corpus, d->split.attackerTest, 10000);
    run.digests["pool_models"] = poolDigest(*d->inputs.pool, probe);
    if (retrain) {
        Digest evasive_digest;
        for (const features::ProgramFeatures &prog : d->evasive)
            evasive_digest.program(prog);
        run.digests["evasive_windows"] = evasive_digest.hex();
    }

    ServePlan plan;
    plan.seconds = run.opt.seconds;
    plan.retrain = retrain;
    plan.perLayer = run.opt.trace;
    plan.workdir = run.opt.workdir;
    plan.seed = run.opt.seed;
    ServeTimes times;
    {
        const double busy0 = poolTaskSeconds();
        const std::uint64_t tasks0 = counter("pool.tasks");
        const double t0 = now();
        times = runServePhase(d->inputs, plan, *d->service, run.report);
        // The serving phase runs the thread pool with one thread.
        run.layers.poolWall = now() - t0;
        run.layers.poolBusy = poolTaskSeconds() - busy0;
        run.layers.poolTasks = counter("pool.tasks") - tasks0;
    }
    // The offline phase of a serving workload is the serial replay of
    // every served request: the same scoring without the service.
    run.report.set("study_s", times.replay, "s");
    run.studyUntraced.push_back(times.replay);
    run.layers.retrain = times.retrain;
    timeScoring(run.layers, "LR", d->inputs.pool->detectors(), probe);
    d->service->stop();
}

void
probePerInstruction(Report &report)
{
    // A fixed sample: two benign and two malware programs of the
    // preset seed, whatever the run seed.
    trace::GeneratorConfig gen;
    gen.seed = 20171014;
    gen.benignCount = 2;
    gen.malwareCount = 2;
    const std::vector<trace::Program> sample =
        trace::ProgramGenerator(gen).generateCorpus();
    constexpr std::uint64_t kInsts = 100000;

    struct CountingSink : trace::TraceSink
    {
        std::uint64_t n = 0;
        void consume(const trace::DynInst &) override { ++n; }
    };
    struct RecordingSink : trace::TraceSink
    {
        std::vector<trace::DynInst> stream;
        void consume(const trace::DynInst &inst) override
        {
            stream.push_back(inst);
        }
    };

    std::vector<double> exec_ns;
    std::vector<double> step_ns;
    std::vector<double> consume_ns;
    for (int pass = 0; pass < 3; ++pass) {
        double exec = 0.0;
        double step = 0.0;
        double consume = 0.0;
        std::uint64_t insts = 0;
        for (const trace::Program &program : sample) {
            CountingSink counting;
            double t0 = now();
            trace::Executor(program, program.seed ^ 0x5eedULL)
                .run(kInsts, counting);
            exec += now() - t0;
            insts += counting.n;

            RecordingSink recording;
            recording.stream.reserve(kInsts);
            trace::Executor(program, program.seed ^ 0x5eedULL)
                .run(kInsts, recording);

            uarch::PerfMonitor monitor;
            t0 = now();
            for (const trace::DynInst &inst : recording.stream)
                monitor.step(inst);
            step += now() - t0;

            features::FeatureSession session({5000, 10000});
            t0 = now();
            for (const trace::DynInst &inst : recording.stream)
                session.consume(inst);
            consume += now() - t0;
            report.check("probe_stream_complete",
                         counting.n == kInsts &&
                             recording.stream.size() == kInsts &&
                             session.totalInsts() == kInsts);
        }
        const double per = 1e9 / static_cast<double>(insts);
        exec_ns.push_back(exec * per);
        step_ns.push_back(step * per);
        consume_ns.push_back(consume * per);
    }
    report.set("trace.exec_ns_per_inst", median(exec_ns), "ns/inst");
    report.set("uarch.step_ns_per_inst", median(step_ns), "ns/inst");
    report.set("features.self_ns_per_inst",
               median(consume_ns) - median(step_ns), "ns/inst");
}

} // namespace rhmd::benchmark
