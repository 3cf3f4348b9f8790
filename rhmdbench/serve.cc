/**
 * @file
 * Open-loop serving phase (serve.hh).
 *
 * Load discipline: one generator thread submits on a seeded Poisson
 * schedule, the calling thread collects answers in submission order,
 * the service runs one worker, and serve_retrain's retrain window adds
 * one pipeline thread — four threads at most. Waits sleep first and spin
 * only for the last few microseconds: a spinning generator and
 * collector beside the service worker measure the scheduler instead
 * of the service. Latency runs from each request's due time to the
 * collector seeing its answer, so a stalled generator charges its
 * lateness to every request it delayed.
 */

#include "serve.hh"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "pipeline/pipeline.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/rng.hh"

namespace rhmd::benchmark
{

namespace
{

using Clock = std::chrono::steady_clock;
using Answer = support::StatusOr<serve::ServeReport>;

/** The threads of the serving phase, one CPU each when there are four. */
enum class Role
{
    Pipeline = 0,
    Generator = 1,
    Collector = 2,
    Worker = 3,
};

cpu_set_t
currentAffinity()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    pthread_getaffinity_np(pthread_self(), sizeof(set), &set);
    return set;
}

/**
 * Pin the calling thread to the CPU of @p role: the role's index among
 * the CPUs this process may use, when it may use at least four. With
 * fewer the threads share the CPUs and the scheduler places them.
 */
void
pinCurrentThread(Role role)
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    if (cpus.size() < 4)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(role)], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/** Timer slack of 1 ns so a sleep ends within a few µs of its target. */
void
tightenTimerSlack()
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

/** Sleep until shortly before @p due, then spin the last few µs. */
void
waitUntil(Clock::time_point due)
{
    constexpr auto kSpin = std::chrono::microseconds(15);
    if (due - Clock::now() > kSpin)
        std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
}

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

std::uint64_t
hashDecisions(const std::vector<int> &decisions)
{
    Digest d;
    for (int v : decisions)
        d.u64(static_cast<std::uint64_t>(v + 1));
    return d.value();
}

/** One answered request, kept for the serial replay check. */
struct Served
{
    const features::ProgramFeatures *prog = nullptr;
    std::uint64_t key = 0;
    std::uint64_t version = 0;
    std::uint64_t decisionHash = 0;
    int decision = 0;
};

/** What one offered-load window measured. */
struct WindowStats
{
    std::vector<double> latencyUs; ///< +inf for failed or shed
    std::vector<double> genLagUs;
    double submitUs = 0.0;         ///< summed submit() call time
    std::size_t offered = 0;       ///< requests on the window's schedule
    std::size_t submitted = 0;
    std::size_t failed = 0;
    std::size_t backlogMax = 0;
    std::size_t backlogEnd = 0;    ///< outstanding at the last submit
    bool aborted = false;          ///< backlog passed the abort limit
    double spanSeconds = 0.0;      ///< first due time to last answer
};

/**
 * Runs the retrain pipeline on its own thread: the collector hands
 * over every answered request, this thread folds them into observe()
 * and calls step() between batches, so a retrain never stalls the
 * collector's clock.
 */
class PipelineRunner
{
  public:
    PipelineRunner(pipeline::RetrainPipeline &loop,
                   serve::DetectionService &service,
                   std::map<std::uint64_t,
                            std::shared_ptr<const core::Rhmd>> &versions,
                   Report &report, const pipeline::DriftConfig &drift,
                   const std::vector<const features::ProgramFeatures *>
                       &evasive)
        : loop_(loop), service_(service), versions_(versions),
          report_(report), drift_(drift),
          evasive_(evasive.begin(), evasive.end()),
          thread_([this] {
              pinCurrentThread(Role::Pipeline);
              run();
          })
    {
    }
    ~PipelineRunner() { stop(); }
    PipelineRunner(const PipelineRunner &) = delete;
    PipelineRunner &operator=(const PipelineRunner &) = delete;

    void push(const features::ProgramFeatures *prog,
              serve::ServeReport report)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        pending_.emplace_back(prog, std::move(report));
    }

    void stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /** Decided cycles so far; readable while the runner runs. */
    std::size_t cycles() const { return cycles_.load(); }

    std::vector<double> promoteS;   ///< drift fired -> decision
    std::vector<double> decideStepS; ///< the deciding step() (gate+swap)
    std::vector<double> retrainStepS; ///< the retraining step()
    double observeUs = 0.0;
    std::size_t observed = 0;
    std::size_t shadowRequests = 0;
    /** Answers and drift suspects among them, [honest, evasive]. */
    std::size_t answers[2] = {0, 0};
    std::size_t suspects[2] = {0, 0};

  private:
    void run()
    {
        std::deque<std::pair<const features::ProgramFeatures *,
                             serve::ServeReport>>
            batch;
        double drift_start = -1.0;
        while (!stop_.load()) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                batch.swap(pending_);
            }
            if (batch.empty()) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                continue;
            }
            const double t_obs = now();
            for (const auto &[prog, rep] : batch)
                loop_.observe(*prog, rep);
            observeUs += (now() - t_obs) * 1e6;
            observed += batch.size();
            for (const auto &[prog, rep] : batch) {
                pipeline::DriftObservation obs;
                obs.programDecision = rep.programDecision;
                obs.meanMargin = rep.meanMargin;
                obs.detectorFailures = rep.detectorFailures;
                obs.degraded = rep.degraded;
                const int evasive = evasive_.count(prog) > 0 ? 1 : 0;
                ++answers[evasive];
                suspects[evasive] += drift_.suspect(obs) ? 1 : 0;
            }
            batch.clear();

            const double t_step = now();
            const auto step = loop_.step();
            const double t_end = now();
            if (!step.isOk()) {
                report_.check("pipeline_step_ok", false,
                              step.status().toString());
                continue;
            }
            if (step->retrained) {
                drift_start = t_step;
                retrainStepS.push_back(t_end - t_step);
            }
            if (step->shadowEvaluated && drift_start >= 0.0) {
                promoteS.push_back(t_end - drift_start);
                cycles_.fetch_add(1);
                decideStepS.push_back(t_end - t_step);
                shadowRequests += service_.shadowStats().requests;
                drift_start = -1.0;
                if (step->promoted)
                    versions_[step->poolVersion] = loop_.candidatePool();
            }
        }
    }

    pipeline::RetrainPipeline &loop_;
    serve::DetectionService &service_;
    std::map<std::uint64_t, std::shared_ptr<const core::Rhmd>> &versions_;
    Report &report_;
    const pipeline::DriftDetector drift_;
    const std::set<const features::ProgramFeatures *> evasive_;
    std::mutex mutex_;
    std::deque<std::pair<const features::ProgramFeatures *,
                         serve::ServeReport>>
        pending_;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> cycles_{0};
    std::thread thread_;
};

/** The request mix of one window. */
struct Mix
{
    const std::vector<const features::ProgramFeatures *> *traffic;
    const std::vector<const features::ProgramFeatures *> *evasive;
    double evasiveShare = 0.0;
};

/**
 * Offer @p rate requests/s for @p seconds (Poisson arrivals from
 * @p rng). Stops submitting early when more than @p abort_backlog
 * requests are outstanding. Every answer is appended to @p served.
 */
WindowStats
offer(serve::DetectionService &service, const Mix &mix, double rate,
      double seconds, Rng &rng, std::uint64_t &next_key,
      std::vector<Served> &served, PipelineRunner *runner,
      std::size_t abort_backlog)
{
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(rate * seconds)));
    std::vector<double> offset(n);
    std::vector<const features::ProgramFeatures *> progs(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        offset[i] = t;
        const bool evasive = !mix.evasive->empty() &&
                             rng.uniform() < mix.evasiveShare;
        const auto &pool = evasive ? *mix.evasive : *mix.traffic;
        progs[i] = pool[rng.below(pool.size())];
    }
    const std::uint64_t key0 = next_key;
    next_key += n;

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    std::vector<Clock::time_point> due(n);
    for (std::size_t i = 0; i < n; ++i)
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offset[i]));

    std::vector<std::future<Answer>> futures(n);
    std::atomic<std::size_t> submitted{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> generator_done{false};
    WindowStats stats;
    stats.offered = n;
    stats.genLagUs.reserve(n);

    std::thread generator([&] {
        pinCurrentThread(Role::Generator);
        tightenTimerSlack();
        for (std::size_t i = 0; i < n; ++i) {
            waitUntil(due[i]);
            const Clock::time_point t_sub = Clock::now();
            stats.genLagUs.push_back(micros(t_sub - due[i]));
            futures[i] = service.submit(*progs[i], key0 + i);
            stats.submitUs += micros(Clock::now() - t_sub);
            submitted.store(i + 1, std::memory_order_release);
            const std::size_t backlog =
                i + 1 - completed.load(std::memory_order_acquire);
            stats.backlogMax = std::max(stats.backlogMax, backlog);
            stats.backlogEnd = backlog;
            if (backlog > abort_backlog) {
                stats.aborted = true;
                break;
            }
        }
        generator_done.store(true, std::memory_order_release);
    });

    tightenTimerSlack();
    stats.latencyUs.reserve(n);
    // Answers land in a slot array sized up front: growing a vector
    // inside the loop would stall the collector's clock.
    std::vector<Served> answers(n);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (submitted.load(std::memory_order_acquire) <= i) {
            if (generator_done.load(std::memory_order_acquire) &&
                submitted.load(std::memory_order_acquire) <= i)
                break;
            const Clock::time_point wake = due[i];
            if (wake > Clock::now())
                waitUntil(wake);
            else
                std::this_thread::yield();
        }
        if (submitted.load(std::memory_order_acquire) <= i)
            break;
        Answer answer = futures[i].get();
        const double latency = micros(Clock::now() - due[i]);
        completed.store(i + 1, std::memory_order_release);
        if (!answer.isOk()) {
            ++stats.failed;
            stats.latencyUs.push_back(
                std::numeric_limits<double>::infinity());
            continue;
        }
        stats.latencyUs.push_back(latency);
        Served &s = answers[answered++];
        s.prog = progs[i];
        s.key = key0 + i;
        s.version = answer->poolVersion;
        s.decision = answer->programDecision;
        s.decisionHash = hashDecisions(answer->decisions);
        if (runner != nullptr)
            runner->push(progs[i], std::move(*answer));
    }
    stats.spanSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    generator.join();
    stats.submitted = submitted.load();
    served.insert(served.end(), answers.begin(),
                  answers.begin() + static_cast<std::ptrdiff_t>(answered));
    return stats;
}

/**
 * The decisions the service owes (program, key) under @p pool: its
 * per-key switching stream replayed serially (the request-keyed
 * determinism contract of the service).
 */
std::vector<int>
replayDecisions(const core::Rhmd &pool, std::uint64_t seed,
                const features::ProgramFeatures &prog, std::uint64_t key)
{
    const std::uint32_t epoch_len = pool.decisionPeriod();
    const std::size_t n_epochs = prog.windows(epoch_len).size();
    Rng rng = SplitRng(seed).at(key);
    std::vector<int> out;
    out.reserve(n_epochs);
    for (std::size_t e = 0; e < n_epochs; ++e) {
        const std::size_t pick = rng.weightedIndex(pool.policy());
        const core::Hmd &det = *pool.detectors()[pick];
        const std::size_t index = e * (epoch_len / det.decisionPeriod());
        const double score =
            det.windowScore(prog.windows(det.decisionPeriod())[index]);
        out.push_back(score >= det.threshold() ? 1 : 0);
    }
    return out;
}

/** Slices per fixed-rate window. */
constexpr std::size_t kSlices = 15;

/** Drift-to-decision cycles the retrain window waits for. */
constexpr std::size_t kMinCycles = 11;

/**
 * Latency figures of one offered rate over its slices. p50 pools every
 * request of the rate: slice medians on the build host were bimodal
 * (a slice sat near 25 or near 32 µs, in changing proportions), so a
 * median over slices jumped between the modes from run to run while
 * the pooled median moves only with the proportion. p90 and p99 are
 * medians over the slices, so a host stall lands in one slice instead
 * of moving the figure. Only p50 at r2 and r3 are end-to-end metrics:
 * on the virtual machine this benchmark was built on, host stalls of
 * whole milliseconds decided p90 and p99 (and p50 at r1, where every
 * request wakes an idle vCPU) in so many slices and runs that no bound
 * held between identical runs. They stay per-layer figures (serve.*).
 */
struct SliceStats
{
    std::vector<double> all;
    std::vector<double> p90;
    std::vector<double> p99;

    void add(const WindowStats &w)
    {
        all.insert(all.end(), w.latencyUs.begin(), w.latencyUs.end());
        p90.push_back(quantile(w.latencyUs, 0.90));
        p99.push_back(quantile(w.latencyUs, 0.99));
    }

    /** Record the figures of @p rate ("r1", "r2" or "r3"). */
    void report(Report &r, const std::string &rate) const
    {
        r.set((rate == "r1" ? "serve.p50_us." : "p50_us.") + rate,
              quantile(all, 0.50), "us");
        r.set("serve.p90_us." + rate, median(p90), "us");
        r.set("serve.p99_us." + rate, median(p99), "us");
    }
};

/** Counter deltas over the phase for the per-layer report. */
struct CounterSnapshot
{
    std::map<std::string, std::uint64_t> values;
    static CounterSnapshot take()
    {
        CounterSnapshot s;
        for (const char *name : kNames)
            s.values[name] = counter(name);
        return s;
    }
    static constexpr const char *kNames[] = {
        "serve.shed_queue_full",
        "serve.shed_deadline",     "serve.shed_deadline_submit",
        "serve.shed_stopped",      "serve.shed_quota",
        "serve.shed_circuit_open", "serve.swap_attempts",
        "serve.swap_accepted",     "serve.swap_rejected",
        "pipeline.drift_fired",    "pipeline.retrains",
        "pipeline.promotions",     "pipeline.rejected_gate",
        "pipeline.rejected_shadow", "pipeline.programs_flagged",
        "pipeline.spool_drains",
    };
};

support::Histogram &
batchSizeHistogram()
{
    return support::metrics().histogram(
        "serve.batch_size", "requests per drained batch",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
        support::MetricDomain::Timing);
}

} // namespace

serve::ServeConfig
serveConfig(const ServeInputs &inputs)
{
    serve::ServeConfig sc;
    sc.workers = 1;
    sc.maxBatch = 16;
    // Deep enough that the rate ladder's overload probes queue
    // instead of shedding (they abort on backlog first).
    sc.queueCapacity = 1u << 18;
    sc.deadlineSeconds = 0.0;
    sc.seed = 0x5e12f1ce;
    // Quarantine off: answers stay a pure function of (key, version).
    sc.health.failureThreshold = 1u << 20;
    sc.gate.corpus = inputs.corpus;
    sc.gate.testIdx = inputs.gateIdx;
    sc.gate.floorTolerance = 0.0;
    return sc;
}

std::unique_ptr<serve::DetectionService>
startService(const ServeInputs &inputs)
{
    const Span span("serve.start");
    // The worker thread inherits the affinity of the thread that
    // creates it: create the service while pinned to the worker's CPU.
    const cpu_set_t saved = currentAffinity();
    pinCurrentThread(Role::Worker);
    auto service = std::make_unique<serve::DetectionService>(
        inputs.pool, serveConfig(inputs));
    pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);

    // Closed-loop warm-up in small bursts (so the queue-depth gauge
    // reflects the timed windows): every traffic program once.
    std::uint64_t key = 1ULL << 62; // far above any timed window's keys
    for (std::size_t begin = 0; begin < inputs.traffic.size(); begin += 16) {
        std::vector<std::future<Answer>> futures;
        const std::size_t end =
            std::min(inputs.traffic.size(), begin + 16);
        for (std::size_t i = begin; i < end; ++i)
            futures.push_back(service->submit(*inputs.traffic[i], key++));
        for (auto &f : futures)
            f.get();
    }
    return service;
}

ServeTimes
runServePhase(const ServeInputs &inputs, const ServePlan &plan,
              serve::DetectionService &service, Report &report)
{
    ServeTimes times;
    // The serving phase owns the cores: retraining runs inline on the
    // pipeline thread instead of fanning out over the global pool.
    const std::size_t study_threads = support::globalThreads();
    support::setGlobalThreads(1);
    const cpu_set_t saved = currentAffinity();
    pinCurrentThread(Role::Collector);

    std::map<std::uint64_t, std::shared_ptr<const core::Rhmd>> versions;
    versions[service.poolVersion()] = inputs.pool;
    // Answers of the fixed-size windows (timed replay) and of the
    // ladder (replayed too, untimed: its length depends on capacity).
    std::vector<Served> served;
    std::vector<Served> ladder_served;
    Rng rng(plan.seed * 0x9e3779b97f4a7c15ULL + 0x5e12);
    std::uint64_t next_key = 1;
    const Mix plain{&inputs.traffic, &inputs.evasive, 0.0};
    // serve_retrain's r2 mix: a quarter evasive variants, so they are
    // about a quarter of the suspects the pipeline spools and reach
    // every retrained candidate, while three quarters of the requests
    // stay serve_open_loop's honest r2 mix. The share is a choice, not
    // a figure from the paper; the run prints the suspect composition.
    const Mix attacked{&inputs.traffic, &inputs.evasive, 0.25};

    const CounterSnapshot before = CounterSnapshot::take();
    support::Histogram &batch_hist = batchSizeHistogram();
    const std::uint64_t batches0 = batch_hist.count();
    const double batch_sum0 = batch_hist.sum();

    std::vector<double> gen_lag;
    std::size_t backlog_max = 0;
    double submit_us = 0.0;
    std::size_t submits = 0;
    std::size_t failed = 0;
    std::size_t attempted = 0;
    // Folds a window into the phase totals. Ladder probes overload on
    // purpose and are not attempted operations; closed bursts queue
    // everything at once, so their backlog and generator lag say
    // nothing about pacing. A request an aborted window never
    // submitted counts as failed.
    enum class Kind
    {
        Paced,
        Burst,
        Probe,
    };
    const auto fold = [&](const WindowStats &w, Kind kind) {
        submit_us += w.submitUs;
        submits += w.submitted;
        if (kind == Kind::Probe)
            return;
        if (kind == Kind::Paced) {
            gen_lag.insert(gen_lag.end(), w.genLagUs.begin(),
                           w.genLagUs.end());
            backlog_max = std::max(backlog_max, w.backlogMax);
        }
        failed += w.failed + (w.offered - w.submitted);
        attempted += w.offered;
    };

    // Fixed-rate windows, interleaved in slices (r1, r2, r3, r1, ...)
    // so a drift of the host over the phase touches every rate alike.
    // Each slice holds at least 1000 requests, so its p99 has ten
    // samples beyond it, and each percentile is the median over the
    // slices of its rate: a stall of the host lands in one slice
    // instead of moving the figure.
    const double s = plan.seconds;
    const std::size_t hard_backlog = 1u << 16;
    struct Rate
    {
        double rate;
        double share; ///< of the phase budget, over all slices
        const char *name;
        SliceStats stats;
    };
    std::vector<Rate> rates = {{kRateR1, 0.30, "r1", {}},
                               {kRateR2, 0.15, "r2", {}},
                               {kRateR3, 0.08, "r3", {}}};
    // Serial replay: every answer must equal its (key, version)
    // replayed outside the service. The fixed-rate rounds' answers are
    // replayed after each round and timed (the same scoring work
    // without queueing, planning or fulfilment), so the timing samples
    // the host across the whole phase instead of one moment of it.
    const std::uint64_t replay_seed = serveConfig(inputs).seed;
    std::size_t mismatches = 0;
    std::size_t unknown_version = 0;
    std::size_t replayed = 0; ///< served[0, replayed) are timed
    const auto replay = [&](const std::vector<Served> &answers,
                            std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const Served &a = answers[i];
            const auto it = versions.find(a.version);
            if (it == versions.end()) {
                ++unknown_version;
                continue;
            }
            const std::vector<int> d =
                replayDecisions(*it->second, replay_seed, *a.prog, a.key);
            std::size_t votes = 0;
            for (int v : d)
                votes += v != 0 ? 1 : 0;
            const int decision = 2 * votes >= d.size() ? 1 : 0;
            if (hashDecisions(d) != a.decisionHash || decision != a.decision)
                ++mismatches;
        }
    };

    // Requests per closed burst: one burst per round.
    const double burst = s >= 8.0 ? 16000.0 : 4000.0;
    std::vector<double> capacity;
    const auto slice_seconds = [&](double rate, double share) {
        return std::max(1000.0 / rate,
                        share * s / static_cast<double>(kSlices));
    };
    {
        const Span span("serve.fixed_rates");
        // Priming slice: the phase's first window pays page faults for
        // the harness' fresh buffers.
        fold(offer(service, plain, kRateR2, 0.05, rng, next_key, served,
                   nullptr, hard_backlog),
             Kind::Paced);
        for (std::size_t k = 0; k < kSlices; ++k) {
            for (Rate &r : rates) {
                if (plan.retrain && r.rate == kRateR2)
                    continue;
                const WindowStats w =
                    offer(service, plain, r.rate,
                          slice_seconds(r.rate, r.share), rng, next_key,
                          served, nullptr, hard_backlog);
                fold(w, Kind::Paced);
                r.stats.add(w);
            }
            // Closed burst: every request submitted back to back, so
            // the service always has work; its completion rate is the
            // capacity of the service and its one submitting client.
            const WindowStats w =
                offer(service, plain, 1e9, burst / 1e9, rng, next_key,
                      served, nullptr, hard_backlog);
            fold(w, Kind::Burst);
            capacity.push_back(static_cast<double>(w.submitted) /
                               w.spanSeconds);
            const Span replay_span("serve.replay");
            const double t0 = now();
            replay(served, replayed, served.size());
            times.replay += now() - t0;
            replayed = served.size();
        }
    }
    report.set("serve.capacity_rps", median(capacity), "1/s");
    for (const Rate &r : rates)
        if (!(plan.retrain && r.rate == kRateR2))
            r.stats.report(report, r.name);

    // Retrain window (serve_retrain only): the r2 window, with evasive
    // variants mixed in, runs drift -> capture -> retrain -> shadow ->
    // promote or reject beside the reads. The ladder after it serves
    // the last promoted version. Elsewhere the pipeline.* and
    // serve.swap_* figures read 0: no write path runs.
    const char *const pipeline_figures[] = {
        "pipeline.promote_s", "serve.swap_s",   "pipeline.step_s",
        "pipeline.observe_us", "pipeline.cycles", "pipeline.shadow_requests"};
    const char *const pipeline_units[] = {"s", "s", "s", "us", "count",
                                          "count"};
    for (std::size_t i = 0; i < std::size(pipeline_figures); ++i)
        report.set(pipeline_figures[i], 0.0, pipeline_units[i]);
    if (plan.retrain) {
        const Span span("serve.retrain");
        pipeline::PipelineConfig pc;
        // Drift is judged over a full window of 256 answers, and the
        // spool keeps 16 suspects: the 8% threshold means at least 21
        // suspects when drift fires, so every candidate retrains on the
        // same amount of data whatever the population's margins.
        pc.drift.window = 256;
        pc.drift.minObservations = 256;
        pc.drift.marginFloor = 0.35;
        pc.drift.suspectRateThreshold = 0.08;
        pc.drift.failureRateThreshold = 1e9;
        pc.retrain.algorithm = "LR";
        pc.retrain.specs = inputs.specs;
        pc.retrain.opcodeTopK = 16;
        pc.retrain.seed = 0x5eed2e7a;
        pc.recorder.path = plan.workdir + "/retrain-spool.rhmdc";
        pc.recorder.periods = inputs.corpus->periods;
        pc.recorder.maxPrograms = 16;
        pc.shadowMinRequests = 32;
        pc.shadowMinAgreement = 0.5;
        pipeline::RetrainPipeline loop(service, *inputs.corpus,
                                       inputs.trainIdx, pc);
        PipelineRunner runner(loop, service, versions, report, pc.drift,
                              inputs.evasive);
        const double share = 0.30;
        SliceStats stats;
        // At least kSlices slices; in traced runs on until kMinCycles
        // cycles have been decided, so pipeline.promote_s is a median
        // over enough cycles.
        for (std::size_t k = 0;
             k < kSlices || (plan.perLayer && runner.cycles() < kMinCycles &&
                             k < 4 * kSlices);
             ++k) {
            const WindowStats w =
                offer(service, attacked, kRateR2,
                      slice_seconds(kRateR2, share), rng, next_key, served,
                      &runner, hard_backlog);
            fold(w, Kind::Paced);
            stats.add(w);
        }
        runner.stop();
        if (service.shadowActive())
            service.clearShadow();
        std::remove(pc.recorder.path.c_str());
        stats.report(report, "r2");
        // The retraining steps are the pipeline's ml training.
        for (double seconds : runner.retrainStepS)
            times.retrain += seconds;
        report.check("retrain_cycles_decided", !runner.promoteS.empty(),
                     "no drift->decision cycle completed");
        const auto percent = [](std::size_t part, std::size_t whole) {
            return whole > 0 ? 100.0 * static_cast<double>(part) /
                                   static_cast<double>(whole)
                             : 0.0;
        };
        std::printf("retrain window: drift suspects are %.1f%% of %zu "
                    "honest and %.1f%% of %zu evasive answers "
                    "(drift threshold %.0f%%), evasive variants %.1f%% of "
                    "the suspects; %zu cycles decided\n",
                    percent(runner.suspects[0], runner.answers[0]),
                    runner.answers[0],
                    percent(runner.suspects[1], runner.answers[1]),
                    runner.answers[1], 100.0 * pc.drift.suspectRateThreshold,
                    percent(runner.suspects[1],
                            runner.suspects[0] + runner.suspects[1]),
                    runner.promoteS.size());
        report.set("pipeline.promote_s", median(runner.promoteS), "s");
        report.set("serve.swap_s", median(runner.decideStepS), "s");
        report.set("pipeline.step_s", median(runner.retrainStepS), "s");
        report.set("pipeline.observe_us",
                   runner.observed > 0
                       ? runner.observeUs /
                             static_cast<double>(runner.observed)
                       : 0.0,
                   "us");
        report.set("pipeline.cycles",
                   static_cast<double>(runner.promoteS.size()), "count");
        report.set("pipeline.shadow_requests",
                   static_cast<double>(runner.shadowRequests), "count");
    }

    // The ladder overloads the service on purpose and its backlog
    // dominates the process's memory high-water mark, so the workload's
    // peak is read before it.
    report.set("peak_rss_mb", peakRssMb(), "MB");

    // Rate ladder (traced runs): rungs 1.25x apart above r3. A rung
    // holds when at least two of its three short slices keep p90 within
    // the limit with no failure and at most the limit's worth of
    // requests still outstanding at the last submit; the ladder stops
    // after two consecutive rungs that do not hold, the bracket above
    // the highest holding rung is bisected, and serve.max_rate_rps
    // interpolates (log-log) where the median slice p90 crosses the
    // limit. The ladder probes overload on purpose, so its requests are
    // not counted as attempted operations.
    if (plan.perLayer) {
        const Span span("serve.ladder");
        struct Rung
        {
            double rate;
            bool holds;
            double p90;
        };
        const auto probe = [&](double rate) {
            const std::size_t limit = static_cast<std::size_t>(
                std::max(64.0, rate * kLatencyLimitUs * 1e-6));
            // Short slices bound the harness' own memory at any rate.
            const double slice_s =
                std::min(0.02 * s, 12000.0 / rate);
            std::size_t good = 0;
            std::vector<double> p90;
            for (int k = 0; k < 3; ++k) {
                const WindowStats w =
                    offer(service, plain, rate, slice_s, rng, next_key,
                          ladder_served, nullptr, 4 * limit);
                fold(w, Kind::Probe);
                const double q = quantile(w.latencyUs, 0.90);
                p90.push_back(w.aborted ? std::max(q, 4 * kLatencyLimitUs)
                                        : q);
                good += !w.aborted && w.failed == 0 &&
                                w.backlogEnd <= limit && q <= kLatencyLimitUs
                            ? 1
                            : 0;
            }
            return Rung{rate, good >= 2, median(p90)};
        };
        std::vector<Rung> rungs;
        std::size_t misses = 0;
        for (double rate = kRateR3 * 1.25; rate < 4e6 && misses < 2;
             rate *= 1.25) {
            rungs.push_back(probe(rate));
            misses = rungs.back().holds ? 0 : misses + 1;
        }
        Rung lo{kRateR3, true, median(rates[2].stats.p90)};
        Rung hi = rungs.front();
        for (std::size_t i = 0; i < rungs.size(); ++i) {
            if (rungs[i].holds && i + 1 < rungs.size()) {
                lo = rungs[i];
                hi = rungs[i + 1];
            }
        }
        if (hi.holds)
            hi = probe(hi.rate * 1.25);
        // Bisect the bracket, then interpolate the p90 crossing.
        for (int i = 0; i < 3; ++i) {
            const Rung mid = probe(std::sqrt(lo.rate * hi.rate));
            (mid.holds ? lo : hi) = mid;
        }
        double max_rate = lo.rate;
        if (hi.p90 > lo.p90 && lo.p90 > 0.0) {
            const double t = std::clamp(
                std::log(kLatencyLimitUs / lo.p90) /
                    std::log(hi.p90 / lo.p90),
                0.0, 1.0);
            max_rate = lo.rate * std::pow(hi.rate / lo.rate, t);
        }
        report.set("serve.max_rate_rps", max_rate, "1/s");
    }

    const CounterSnapshot after = CounterSnapshot::take();
    const auto delta = [&](const char *name) {
        return static_cast<double>(after.values.at(name) -
                                   before.values.at(name));
    };
    double sheds = 0.0;
    for (const char *name :
         {"serve.shed_queue_full", "serve.shed_deadline",
          "serve.shed_deadline_submit", "serve.shed_stopped",
          "serve.shed_quota", "serve.shed_circuit_open"})
        sheds += delta(name);
    const double batches = static_cast<double>(batch_hist.count() - batches0);
    report.set("serve.batches", batches, "count");
    report.set("serve.batch_size_mean",
               batches > 0 ? (batch_hist.sum() - batch_sum0) / batches : 0.0,
               "count");
    report.set("serve.sheds", sheds, "count");
    report.set("serve.queue_depth_peak",
               support::metrics()
                   .gauge("serve.queue_depth_peak",
                          "maximum observed request-queue depth",
                          support::MetricDomain::Timing)
                   .value(),
               "count");
    report.set("serve.submit_us",
               submits > 0 ? submit_us / static_cast<double>(submits) : 0.0,
               "us");
    report.set("serve.gen_lag_p99_us", quantile(gen_lag, 0.99), "us");
    report.set("serve.backlog_max", static_cast<double>(backlog_max),
               "count");
    for (const char *name :
         {"serve.swap_attempts", "serve.swap_accepted", "serve.swap_rejected",
          "pipeline.drift_fired", "pipeline.retrains", "pipeline.promotions",
          "pipeline.rejected_gate", "pipeline.rejected_shadow",
          "pipeline.programs_flagged", "pipeline.spool_drains"})
        report.set(name, delta(name), "count");
    report.attempted += attempted;
    report.failed += failed;

    // The answers not replayed during the fixed-rate rounds: the
    // retrain window's and the ladder's, untimed.
    {
        const Span span("serve.replay");
        replay(served, replayed, served.size());
        replay(ladder_served, 0, ladder_served.size());
        report.check("serve_answers_equal_serial_replay",
                     mismatches == 0 && unknown_version == 0 &&
                         replayed > 0,
                     std::to_string(mismatches) + " mismatches, " +
                         std::to_string(unknown_version) +
                         " unknown versions over " +
                         std::to_string(served.size() +
                                        ladder_served.size()));
        report.set("serve.score_only_us",
                   times.replay * 1e6 / static_cast<double>(replayed),
                   "us");
        report.set("serve.answers",
                   static_cast<double>(served.size() + ladder_served.size()),
                   "count");
    }
    report.check("serve_no_failed_requests", failed == 0,
                 std::to_string(failed) + " failed or shed");
    // Load-discipline figures, printed on every run (traced runs also
    // report them as per-layer metrics).
    std::printf("serving phase: %zu requests, generator lag p99 %.1f us, "
                "backlog max %zu, %s on %u CPUs\n",
                attempted, quantile(gen_lag, 0.99), backlog_max,
                plan.retrain
                    ? "4 threads (generator, collector, worker, pipeline)"
                    : "3 threads (generator, collector, worker)",
                std::thread::hardware_concurrency());
    pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
    support::setGlobalThreads(study_threads);
    return times;
}

} // namespace rhmd::benchmark
