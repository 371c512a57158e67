/**
 * @file
 * edgebench: the repository benchmark.  perfbench/run.py builds it and
 * runs
 *
 *   edgebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--threads 4] [--small] [--out DIR]
 *             [--commit SHA] [--source-digest HEX]
 *
 * --trace 0 repeats set-up + the workload's measured phase while one
 * more repetition fits in --seconds and prints the end-to-end metrics
 * (medians over the repetitions, each with its sample count), the
 * simulated outputs and their %.17g digest.  --trace 1 is the separate
 * traced run: one
 * untraced and one traced repetition of the named workload (their
 * difference is the tracing overhead), then a traced repetition and the
 * per-layer rungs of every workload, with the spans written to
 * DIR/trace-<workload>-seed<n>.json.  The last stdout line is always
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace er = edgereason;
using namespace perfbench;

namespace {

/** Seeds kept out of tuning, one per workload: later claims must also
 *  hold at these. */
const std::map<std::string, std::uint64_t> kHeldOutSeeds = {
    {"pareto_sweep", 90417},
    {"serve_sessions", 90418},
    {"fleet_gray", 90419},
};

/** Set-up is repeated at least this often per run; its median is
 *  setup_s. */
constexpr std::size_t kMinSetups = 9;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 4;
    bool small = false;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "edgebench: %s\nusage: edgebench --workload "
                 "pareto_sweep|serve_sessions|fleet_gray --seed N "
                 "--seconds S --trace 0|1 [--threads N] [--small] "
                 "[--out DIR] [--commit SHA] [--source-digest HEX]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--small") {
            o.small = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            o.trace = val == "1";
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
        } else if (key == "--threads") {
            o.threads = static_cast<unsigned>(
                std::strtoul(val.c_str(), &end, 10));
        } else if (key == "--out") {
            o.outDir = val;
        } else if (key == "--commit") {
            o.commit = val;
        } else if (key == "--source-digest") {
            o.sourceDigest = val;
        } else {
            usage("unknown argument " + key);
        }
        if (end && *end != '\0')
            usage("bad number for " + key + ": " + val);
    }
    if (!kHeldOutSeeds.count(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (!have_seed)
        usage("--seed is required");
    if (!(o.seconds >= 0.0) || o.threads == 0)
        usage("--seconds must be >= 0 and --threads >= 1");
    return o;
}

std::string
loadAverage()
{
    double l[3] = {0.0, 0.0, 0.0};
    if (getloadavg(l, 3) != 3)
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%.2f,%.2f,%.2f]", l[0], l[1], l[2]);
    return buf;
}

std::string
metaJson(const Options &o, const std::string &load_before)
{
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    std::string held;
    for (const auto &[w, s] : kHeldOutSeeds) {
        held += held.empty() ? "\"" : ",\"";
        held += w;
        held += "\":";
        held += std::to_string(s);
    }
    return std::string("{") +
        "\"host\":\"" + host + "\"" +
        ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
        ",\"threads\":" +
        std::to_string(er::ThreadPool::global().threadCount()) +
        ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
        ",\"compiler\":\"" PERFBENCH_COMPILER "\"" +
        ",\"git_commit\":\"" + o.commit + "\"" +
        ",\"source_digest\":\"" + o.sourceDigest + "\"" +
        ",\"workload\":\"" + o.workload + "\"" +
        ",\"seed\":" + std::to_string(o.seed) +
        ",\"held_out_seeds\":{" + held + "}" +
        ",\"seconds\":" + std::to_string(o.seconds) +
        ",\"trace\":" + (o.trace ? "1" : "0") +
        ",\"small\":" + (o.small ? "true" : "false") +
        ",\"loadavg_before\":" + load_before +
        ",\"loadavg_after\":" + loadAverage() + "}";
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : er::percentile(std::move(xs), 50.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetric(const char *kind, const Metric &m)
{
    std::printf("%s %s %.17g %s n=%zu\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

void
merge(Rep &into, const Rep &from)
{
    into.calls += from.calls;
    into.failedCalls += from.failedCalls;
    into.failures.insert(into.failures.end(), from.failures.begin(),
                         from.failures.end());
}

/** Print the outcome line the harness parses (always last). */
int
finish(const Options &o, const std::string &load_before, Rep &checks,
       const Metrics &metrics)
{
    std::string json = "{";
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            checks.check(false, m.name + " is not finite");
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      json.size() > 1 ? "," : "", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0,
                      m.unit.c_str());
        json += buf;
    }
    json += "}";
    for (const auto &f : checks.failures)
        std::printf("check FAILED %s\n", f.c_str());
    std::printf("meta %s\n", metaJson(o, load_before).c_str());
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":%s}\n",
                checks.failedCalls == 0 ? "true" : "false", checks.calls,
                checks.failedCalls, json.c_str());
    std::fflush(stdout);
    return 0;
}

int
measure(const Options &o, const std::string &load_before)
{
    auto w = makeWorkload(o.workload, o.seed, o.small, o.outDir);
    Tracer off(false);
    std::vector<Rep> reps;
    std::vector<double> setups;
    const auto start = Clock::now();
    // Repeat while another repetition as long as the last one still
    // fits in the window, so a run ends close to --seconds.
    double last_s = 0.0;
    do {
        Rep r;
        auto t0 = Clock::now();
        w->setup(off);
        r.setupS = secondsSince(t0);
        const double c0 = processCpuSeconds();
        t0 = Clock::now();
        w->run(off, r);
        r.wallS = secondsSince(t0);
        r.cpuS = processCpuSeconds() - c0;
        last_s = r.setupS + r.wallS;
        setups.push_back(r.setupS);
        reps.push_back(std::move(r));
    } while (secondsSince(start) + last_s <= o.seconds);
    while (setups.size() < kMinSetups) {
        const auto t0 = Clock::now();
        w->setup(off);
        setups.push_back(secondsSince(t0));
    }

    Rep checks;
    std::vector<double> cpu, evals, tokens, calls;
    for (const Rep &r : reps) {
        merge(checks, r);
        cpu.push_back(r.cpuS);
        evals.push_back(r.questionEvals / r.rateWallS);
        tokens.push_back(r.simTokens / r.rateWallS);
        calls.insert(calls.end(), r.callMs.begin(), r.callMs.end());
        // Every repetition simulates the same inputs: the simulated
        // outputs must repeat bit for bit.
        checks.check(r.digest == reps.front().digest,
                     "simulated report differs between repetitions");
    }
    const std::size_t n = reps.size();
    const Metrics metrics = {
        {"setup_s", median(setups), "s", setups.size()},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"cpu_s", median(cpu), "s", n},
        {"question_evals_per_s", median(evals), "1/s", n},
        {"sim_tokens_per_s", median(tokens), "tok/s", n},
        {"call_p50_ms", median(calls), "ms", calls.size()},
    };

    std::printf("workload %s seed %llu threads %u reps %zu measured "
                "%.3f s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                er::ThreadPool::global().threadCount(), n,
                secondsSince(start));
    std::printf("reps wall_s");
    for (const Rep &r : reps)
        std::printf(" %.4f", r.wallS);
    std::printf("\n");
    for (const Metric &m : metrics)
        printMetric("metric", m);
    if (o.workload == "pareto_sweep")
        printMetric("metric", {"plan_p50_ms", metrics.back().value, "ms",
                               calls.size()});
    for (const Metric &m : reps.front().sim)
        printMetric("sim", m);
    std::size_t from = 0;
    const std::string &d = reps.front().digest;
    while (from < d.size()) {
        const std::size_t nl = std::min(d.find('\n', from), d.size());
        std::printf("digest %s\n", d.substr(from, nl - from).c_str());
        from = nl + 1;
    }
    std::printf("digest_fnv %s\n", hexDigest(d).c_str());
    return finish(o, load_before, checks, metrics);
}

int
traced(const Options &o, const std::string &load_before)
{
    Tracer tr(true);
    Tracer off(false);
    Metrics layers;
    Rep checks;

    // The named workload, untraced then traced: the tracing overhead.
    double untraced_s = 0.0, traced_s = 0.0;
    {
        auto w = makeWorkload(o.workload, o.seed, o.small, o.outDir);
        Rep u, t;
        w->setup(off);
        auto t0 = Clock::now();
        w->run(off, u);
        untraced_s = secondsSince(t0);
        tr.setWorkload(o.workload);
        Span root(tr, "bench." + o.workload);
        w->setup(tr);
        t0 = Clock::now();
        w->run(tr, t);
        traced_s = secondsSince(t0);
        merge(checks, u);
        merge(checks, t);
        checks.check(u.digest == t.digest,
                     "traced run simulated a different report");
        w->layers(tr, layers, checks);
    }
    layers.push_back({"trace.overhead_pct",
                      100.0 * (traced_s - untraced_s) / untraced_s, "%", 1});

    // Every other workload once, traced, for the rest of the ledger.
    for (const std::string &name : workloadNames()) {
        if (name == o.workload)
            continue;
        auto w = makeWorkload(name, o.seed, o.small, o.outDir);
        tr.setWorkload(name);
        Span root(tr, "bench." + name);
        Rep r;
        w->setup(tr);
        w->run(tr, r);
        merge(checks, r);
        w->layers(tr, layers, checks);
    }

    tr.setWorkload("common");
    {
        Span s(tr, "common.ThreadPool::parallelChunks");
        auto &pool = er::ThreadPool::global();
        constexpr std::size_t kJoins = 2000;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kJoins; ++i)
            pool.parallelChunks(256, 256,
                                [](std::size_t, std::size_t, std::size_t) {});
        layers.push_back({"common.pool.fork_join_us",
                          1e6 * secondsSince(t0) / kJoins, "us", kJoins});
    }
    std::printf("workload %s seed %llu threads %u traced\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                er::ThreadPool::global().threadCount());
    std::printf("trace untraced_s %.6f traced_s %.6f overhead_s %.6f\n",
                untraced_s, traced_s, traced_s - untraced_s);
    for (const auto &[layer, s] : tr.layerSelfSeconds())
        std::printf("layer %s self_s %.6f\n", layer.c_str(), s);
    for (const Metric &m : layers)
        printMetric("layer_metric", m);

    const std::string path = o.outDir + "/trace-" + o.workload + "-seed" +
        std::to_string(o.seed) + ".json";
    checks.check(tr.writeChromeTrace(path, metaJson(o, load_before)),
                 "could not write " + path);
    std::printf("trace_file %s\n", path.c_str());
    return finish(o, load_before, checks, layers);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
#ifndef NDEBUG
    const bool asserts = true;
#else
    const bool asserts = false;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || asserts) {
        std::fprintf(stderr,
                     "edgebench: refusing to run a %s build%s; timings "
                     "are comparable only from a Release build\n",
                     PERFBENCH_BUILD_TYPE,
                     asserts ? " with assertions on" : "");
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(o.outDir, ec);
    if (ec)
        usage("cannot create " + o.outDir + ": " + ec.message());
    er::ThreadPool::setGlobalThreads(o.threads);
    const std::string load_before = loadAverage();
    try {
        return o.trace ? traced(o, load_before) : measure(o, load_before);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "edgebench: %s\n", e.what());
        return 1;
    }
}
