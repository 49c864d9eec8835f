/**
 * @file
 * fdipbench: runs one benchmark workload for a time budget and prints
 * every raw measurement as one JSON object on stdout. perfbench/run.py
 * builds this program, checks the simulated outputs and reduces the
 * passes to the metrics named in BENCHMARK.json.
 *
 *   fdipbench --workload fdp_server --seed 101 --seconds 10 --trace 0
 *             --work-dir DIR
 *
 * A pass is one whole workload: build the workloads and generate the
 * traces (set-up), then simulate every (config, trace) run. Passes
 * repeat until --seconds have elapsed (at least one pass). With
 * --trace 1 a pass also re-simulates with the tick profiler on and
 * replays each trace through the layer replays (replay.h).
 */

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/core_config.h"
#include "prefetch/factory.h"
#include "replay.h"
#include "sim/campaign_presets.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "trace/suite.h"
#include "trace/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using Clock = std::chrono::steady_clock;

constexpr double kWarmupFraction = 0.2;
/** Ticks between tick-profiler samples in the traced run. */
constexpr std::uint64_t kProfileInterval = 16;
/** Campaign worker threads. */
constexpr unsigned kCampaignWorkers = 2;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User plus system CPU seconds of the whole process (all threads). */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::atomic<std::uint64_t> probeSink{0}; ///< Keeps the probe's work live.

/**
 * The host-speed probe: a fixed synthetic kernel (hashed lookups into a
 * 2 MiB counter table and a 256 KiB tag table, data-dependent branches).
 * It does the same work on every call and shares no code with the
 * simulator, so its time follows the host's current speed (other
 * tenants, clock), not the simulator's. run.py scales each pass by the
 * probes that bracket it and prints their median and maximum in the
 * host stamp. It runs on one thread for every workload: the set-up is
 * serial, and a second probe thread would add noise of its own (whether
 * the two threads share a core), not host speed.
 */
double
probeHostSeconds()
{
    constexpr std::uint64_t kIters = 4000000;
    std::vector<std::uint16_t> ctr(1u << 20);
    std::vector<std::uint32_t> tag(1u << 16);
    const auto t0 = Clock::now();
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= i;
        std::uint16_t &c = ctr[h & (ctr.size() - 1)];
        if ((h >> 40) & 1) {
            if (c < 0xffff)
                ++c;
        } else if (c != 0) {
            --c;
        }
        std::uint32_t &g = tag[(h >> 20) & (tag.size() - 1)];
        const auto want = static_cast<std::uint32_t>(h >> 44);
        if (g == want)
            acc += c;
        else
            g = want;
    }
    const double secs = secondsSince(t0);
    probeSink.fetch_add(acc, std::memory_order_relaxed);
    return secs;
}

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class Json
{
  public:
    void open(const char *key, char bracket)
    {
        sep(key);
        put(bracket);
        first_ = true;
    }
    void close(char bracket) { put(bracket); first_ = false; }
    void num(const char *key, double v)
    {
        sep(key);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ += buf;
    }
    void u64(const char *key, std::uint64_t v)
    {
        sep(key);
        out_ += std::to_string(v);
    }
    void str(const char *key, const std::string &v)
    {
        sep(key);
        out_ += '"';
        out_ += v; // Names and hex digests only: nothing to escape.
        out_ += '"';
    }
    void boolean(const char *key, bool v)
    {
        sep(key);
        out_ += v ? "true" : "false";
    }
    const std::string &text() const { return out_; }

  private:
    void put(char c) { out_ += c; }
    void sep(const char *key)
    {
        if (!first_)
            out_ += ", ";
        first_ = false;
        if (key != nullptr) {
            out_ += '"';
            out_ += key;
            out_ += "\": ";
        }
    }
    std::string out_;
    bool first_ = true;
};

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** One benchmark workload. */
struct WorkloadDef
{
    const char *name;
    bool campaign;          ///< Spooled Fig. 6a campaign vs serial runs.
    const char *prefetcher; ///< Serial: the L1I prefetcher; campaign:
                            ///< the prefetcher the replays use.
    std::size_t insts;      ///< Instructions per trace.
};

// The campaign runs 18 (config, trace) pairs a pass, so its traces are
// shorter, to keep a pass near three seconds.
constexpr WorkloadDef kWorkloads[] = {
    {"fdp_server", false, "none", 500000},
    {"fdp_eip128_server", false, "eip-128", 500000},
    {"fig06a_campaign", true, "eip-27", 250000},
};

/** The default seed: the standard suite's own traces. */
constexpr std::uint64_t kDefaultSeed = 101;

/**
 * The programs of @p w: always the standard suite's (srv-a/b/c at
 * seeds 101/102/103; the campaign's small suite srv-a 101, clt-a 201,
 * spec-a 301). The benchmark seed picks their execution instead (see
 * main), so every seed runs the same programs and seeds differ only in
 * the dynamic path: branch outcomes, indirect targets, data addresses.
 */
std::vector<fdip::WorkloadSpec>
specsFor(const WorkloadDef &w)
{
    if (w.campaign) {
        return {fdip::serverSpec("srv-a", 101), fdip::clientSpec("clt-a", 201),
                fdip::specCpuSpec("spec-a", 301)};
    }
    return {fdip::serverSpec("srv-a", 101), fdip::serverSpec("srv-b", 102),
            fdip::serverSpec("srv-c", 103)};
}

/** One simulated (config, trace) run, as checked by run.py. */
struct RunRecord
{
    std::string label;
    std::string trace;
    std::uint64_t traceLen = 0;
    std::uint64_t warmup = 0;
    unsigned commitWidth = 0;
    fdip::SimStats stats;
};

void
writeRun(Json &j, const RunRecord &r)
{
    const fdip::SimStats &s = r.stats;
    j.open(nullptr, '{');
    j.str("label", r.label);
    j.str("trace", r.trace);
    j.u64("trace_len", r.traceLen);
    j.u64("warmup", r.warmup);
    j.u64("commit_width", r.commitWidth);
    j.str("checksum", hex16(fdip::architecturalChecksum(s)));
    j.num("host_wall_s", s.hostWallSeconds);
    j.u64("cycles", s.cycles);
    j.u64("committed_insts", s.committedInsts);
    j.u64("cycle_bucket_sum", s.cycleBucketSum());
    j.u64("stall_cycle_sum", s.stallCycleSum());
    j.u64("starvation_cycles", s.starvationCycles);
    j.u64("mispredicts", s.mispredicts);
    j.u64("btb_lookups", s.btbLookups);
    j.u64("btb_hits", s.btbHits);
    j.u64("l1i_demand_accesses", s.l1iDemandAccesses);
    j.u64("l1i_demand_misses", s.l1iDemandMisses);
    j.u64("l1i_tag_accesses", s.l1iTagAccesses);
    j.u64("prefetches_issued", s.prefetchesIssued);
    j.u64("prefetches_useful", s.prefetchesUseful);
    j.u64("pfc_fires", s.pfcFires);
    j.u64("pfc_correct", s.pfcCorrect);
    j.u64("cycles_fetch_l1i_miss", s.cyclesFetchL1iMiss);
    j.u64("cycles_fetch_ftq_empty_btb_miss", s.cyclesFetchFtqEmptyBtbMiss);
    j.close('}');
}

void
writeProfile(Json &j, const fdip::TickProfile &p)
{
    j.open("profile", '{');
    for (std::size_t i = 0; i < fdip::kTickPhaseCount; ++i)
        j.u64(fdip::kTickPhaseName[i],
              p.exclusiveNs(static_cast<fdip::TickPhase>(i)));
    j.u64("sampled_ticks", p.sampledTicks);
    j.u64("total_ticks", p.totalTicks);
    j.close('}');
}

void
writeReplay(Json &j, const perfbench::ReplayResult &r)
{
    j.open("replay", '{');
    j.u64("insts", r.insts);
    j.u64("blocks", r.blocks);
    j.u64("branches", r.branches);
    j.u64("btb_hits", r.btbHits);
    j.u64("cond_branches", r.condBranches);
    j.u64("cond_mispredicts", r.condMispredicts);
    j.u64("indirect_branches", r.indirectBranches);
    j.u64("history_pushes", r.historyPushes);
    j.u64("l1i_accesses", r.l1iAccesses);
    j.u64("l1i_hits", r.l1iHits);
    j.u64("hier_fetches", r.hierFetches);
    j.u64("prefetch_hook_calls", r.prefetchHookCalls);
    j.u64("prefetches_issued", r.prefetchesIssued);
    j.u64("prefetches_filled", r.prefetchesFilled);
    j.u64("prefetches_useful", r.prefetchesUseful);
    j.u64("ftq_pushes", r.ftqPushes);
    j.num("btb_lookup_ns", r.btbLookupNs);
    j.num("btb_insert_ns", r.btbInsertNs);
    j.num("dir_ns", r.dirNs);
    j.num("indirect_ns", r.indirectNs);
    j.num("history_push_ns", r.historyPushNs);
    j.num("history_snapshot_ns", r.historySnapshotNs);
    j.num("l1i_access_ns", r.l1iAccessNs);
    j.num("hier_fetch_ns", r.hierFetchNs);
    j.num("prefetch_hook_ns", r.prefetchHookNs);
    j.num("prefetch_probe_ns", r.prefetchProbeNs);
    j.num("ftq_ns", r.ftqNs);
    j.close('}');
}

/** The simulation phase of one pass. */
struct SimPhase
{
    std::vector<RunRecord> runs;
    fdip::TickProfile profile;
    double setupEndOffset = 0; ///< Campaign: pass start to first claim.
    double simS = 0;           ///< First simulated tick to last commit.
    double simCpuS = 0;
    double runWallSumS = 0;    ///< Sum of per-run Core::run wall times.
    double resumeS = 0;        ///< Campaign: the all-cache-hit pass.
    bool spoolOk = true;       ///< Campaign: every run simulated once,
                               ///< then served verified from the spool.
    std::string spoolError;
};

/** Appends the record of one simulated run of @p entry to @p out. */
void
addRun(const std::string &label, const fdip::SuiteEntry &entry,
       unsigned commit_width, const fdip::RunResult &rr, SimPhase *out)
{
    RunRecord r;
    r.label = label;
    r.trace = entry.name;
    r.traceLen = entry.trace.size();
    r.warmup = static_cast<std::uint64_t>(static_cast<double>(r.traceLen) *
                                          kWarmupFraction);
    r.commitWidth = commit_width;
    r.stats = rr.stats;
    out->runWallSumS += rr.stats.hostWallSeconds;
    out->profile.merge(rr.hostPhases);
    out->runs.push_back(std::move(r));
}

SimPhase
simulateSerial(const WorkloadDef &w, const std::vector<fdip::SuiteEntry> &suite,
               std::uint64_t profile_interval)
{
    fdip::CoreConfig cfg = fdip::paperBaselineConfig();
    cfg.applyHistoryScheme();
    cfg.obs.profileInterval = profile_interval;
    const fdip::PrefetcherFactory factory = [&w](const fdip::Trace &) {
        return fdip::makePrefetcher(w.prefetcher);
    };
    SimPhase out;
    std::vector<fdip::RunResult> results;
    const auto t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    for (const fdip::SuiteEntry &e : suite)
        results.push_back(fdip::runOne(cfg, e, factory, kWarmupFraction));
    out.simS = secondsSince(t0);
    out.simCpuS = processCpuSeconds() - cpu0;
    for (std::size_t i = 0; i < suite.size(); ++i)
        addRun(w.name, suite[i], cfg.commitWidth, results[i], &out);
    return out;
}

SimPhase
simulateCampaign(const std::vector<fdip::SuiteEntry> &suite,
                 const std::string &spool_dir, Clock::time_point pass_t0,
                 std::uint64_t profile_interval, bool resume)
{
    std::vector<fdip::CampaignEntry> entries =
        fdip::buildCampaignEntries("prefetchers");
    for (fdip::CampaignEntry &e : entries)
        e.cfg.obs.profileInterval = profile_interval;

    fdip::SpoolOptions opts;
    opts.spoolDir = fdip::openSpool(spool_dir);
    opts.warmupFraction = kWarmupFraction;
    opts.jobs = kCampaignWorkers;

    // The first claim is the first simulated tick: everything before it
    // (entries, spool, manifest hashing, spool scan) is set-up.
    std::atomic<bool> claimed{false};
    std::atomic<std::int64_t> first_claim_ns{0};
    std::atomic<double> first_claim_cpu{0.0};
    opts.onSimulate = [&](std::size_t, std::size_t) {
        if (!claimed.exchange(true)) {
            first_claim_cpu.store(processCpuSeconds());
            first_claim_ns.store(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - pass_t0)
                    .count());
        }
    };

    SimPhase out;
    fdip::SpoolSummary summary;
    const std::vector<fdip::SuiteResult> results =
        fdip::runCampaignSpooled(entries, suite, opts, &summary);
    const double end = secondsSince(pass_t0);
    out.simCpuS = processCpuSeconds() - first_claim_cpu.load();
    out.setupEndOffset = 1e-9 * static_cast<double>(first_claim_ns.load());
    out.simS = end - out.setupEndOffset;
    for (std::size_t c = 0; c < results.size(); ++c)
        for (std::size_t w = 0; w < results[c].runs.size(); ++w)
            addRun(results[c].label, suite[w], entries[c].cfg.commitWidth,
                   results[c].runs[w], &out);
    if (!summary.complete || summary.simulated != summary.totalRuns) {
        out.spoolOk = false;
        out.spoolError = "first pass did not simulate every run";
    }

    if (resume) {
        opts.onSimulate = nullptr;
        fdip::SpoolSummary again;
        const auto r0 = Clock::now();
        const std::vector<fdip::SuiteResult> cached =
            fdip::runCampaignSpooled(entries, suite, opts, &again);
        out.resumeS = secondsSince(r0);
        if (!again.complete || again.simulated != 0 ||
            again.cacheHits != again.totalRuns) {
            out.spoolOk = false;
            out.spoolError = "resume re-simulated or missed runs";
        }
        for (std::size_t c = 0; c < cached.size(); ++c)
            for (std::size_t w = 0; w < cached[c].runs.size(); ++w)
                if (!cached[c].runs[w].stats.architecturallyEqual(
                        results[c].runs[w].stats)) {
                    out.spoolOk = false;
                    out.spoolError = "resumed counters differ";
                }
    }
    return out;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string workDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "fdipbench: %s\nusage: fdipbench --workload W --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + a).c_str());
    }
    if (o.workDir.empty())
        usage("--work-dir is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const WorkloadDef *wl = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (opt.workload == w.name)
            wl = &w;
    if (wl == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    Json j;
    j.open(nullptr, '{');
    j.str("workload", wl->name);
    j.u64("seed", opt.seed);
    j.str("prefetcher", wl->prefetcher);
    j.u64("insts_per_trace", wl->insts);
    j.u64("workers", wl->campaign ? kCampaignWorkers : 1);
    j.str("build_type", PERFBENCH_BUILD_TYPE);
    j.u64("fdip_checks", FDIP_ENABLE_CHECKS);
    j.u64("profile_interval", kProfileInterval);
    j.open("passes", '[');

    // probe[k] runs before pass k and probe[k + 1] after it.
    std::vector<double> probe;
    const auto run_t0 = Clock::now();
    for (unsigned pass = 0;
         pass == 0 || secondsSince(run_t0) < opt.seconds; ++pass) {
        probe.push_back(probeHostSeconds());
        const auto t0 = Clock::now();

        // Set-up: workload build, then trace generation. The trace
        // generator draws the dynamic path from spec.seed, so re-seeding
        // a built program changes its execution, not its image; the
        // default seed leaves the standard suite untouched.
        std::vector<std::shared_ptr<const fdip::Workload>> built;
        for (const fdip::WorkloadSpec &spec : specsFor(*wl)) {
            auto w =
                std::make_shared<fdip::Workload>(fdip::buildWorkload(spec));
            w->spec.seed = spec.seed + opt.seed - kDefaultSeed;
            built.push_back(std::move(w));
        }
        const double build_s = secondsSince(t0);
        const auto g0 = Clock::now();
        std::vector<fdip::SuiteEntry> suite;
        std::uint64_t generated = 0;
        for (const auto &w : built) {
            fdip::SuiteEntry e;
            e.name = w->spec.name;
            e.trace = fdip::generateTrace(w, wl->insts);
            generated += e.trace.size();
            suite.push_back(std::move(e));
        }
        const double gen_s = secondsSince(g0);

        const std::string spool = opt.workDir + "/spool-" +
                                  std::to_string(pass);
        SimPhase sim;
        double setup_s = secondsSince(t0);
        if (wl->campaign) {
            sim = simulateCampaign(suite, spool, t0, 0, true);
            setup_s = sim.setupEndOffset;
        } else {
            sim = simulateSerial(*wl, suite, 0);
        }
        const double wall_s = secondsSince(t0);

        j.open(nullptr, '{');
        j.num("setup_s", setup_s);
        j.num("build_s", build_s);
        j.num("gen_s", gen_s);
        j.u64("generated_insts", generated);
        j.num("sim_s", sim.simS);
        j.num("sim_cpu_s", sim.simCpuS);
        j.num("run_wall_sum_s", sim.runWallSumS);
        j.num("resume_s", sim.resumeS);
        j.num("wall_s", wall_s);
        j.boolean("spool_ok", sim.spoolOk);
        j.str("spool_error", sim.spoolError);
        j.open("runs", '[');
        for (const RunRecord &r : sim.runs)
            writeRun(j, r);
        j.close(']');

        if (opt.trace) {
            SimPhase traced =
                wl->campaign
                    ? simulateCampaign(suite, spool + "-traced", t0,
                                       kProfileInterval, false)
                    : simulateSerial(*wl, suite, kProfileInterval);
            j.num("traced_sim_s", traced.simS);
            j.open("traced_checksums", '[');
            for (const RunRecord &r : traced.runs)
                j.str(nullptr, hex16(fdip::architecturalChecksum(r.stats)));
            j.close(']');
            writeProfile(j, traced.profile);

            fdip::CoreConfig cfg = fdip::paperBaselineConfig();
            cfg.applyHistoryScheme();
            perfbench::ReplayResult replay;
            for (const fdip::SuiteEntry &e : suite)
                replay.add(perfbench::replayTrace(cfg, wl->prefetcher,
                                                  e.trace));
            writeReplay(j, replay);
        }
        j.close('}');

        std::error_code ec;
        std::filesystem::remove_all(spool, ec);
        std::filesystem::remove_all(spool + "-traced", ec);
    }
    j.close(']');
    probe.push_back(probeHostSeconds());
    j.open("probe_s", '[');
    for (const double v : probe)
        j.num(nullptr, v);
    j.close(']');
    j.num("peak_rss_mb", peakRssMb());
    j.num("elapsed_s", secondsSince(run_t0));
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}
