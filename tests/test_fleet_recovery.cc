/**
 * @file
 * Fleet durability and gray-failure suite (DESIGN.md §14).  The
 * tentpole claim: killing the fleet *process* at any event and
 * resuming from the latest checkpoint reproduces the uninterrupted
 * fleet report bit for bit — across router policies, crash points,
 * and thread counts, with per-node journal tails byte-verified on
 * resume.  Plus the gray-failure model (slowdown windows that only
 * latency-quantile health can see), the adaptive breaker, and the
 * static breaker's boundary behavior (exact-threshold trip,
 * half-open recovery, flapping re-trip).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "engine/checkpoint.hh"
#include "engine/server.hh"
#include "fleet/fleet.hh"
#include "fleet/node.hh"
#include "fleet/node_faults.hh"
#include "hw/gpu_spec.hh"
#include "model/model_id.hh"

namespace er = edgereason;
using namespace er::fleet;
using er::engine::ServerRequest;
using er::engine::ServingSimulator;

namespace {

const std::filesystem::path kArtifacts = "fleet-recovery-artifacts";

/** A fleet that exercises everything the checkpoint must carry:
 *  crashes + reboots (incarnations), degrade drains, hedged legs,
 *  per-try timeouts with retry backoff, and a twitchy breaker. */
FleetConfig
recoveryConfig(RouterPolicy p)
{
    FleetConfig fc;
    for (int i = 0; i < 3; ++i) {
        NodeSpec s;
        s.model = er::model::ModelId::DeepScaleR1_5B;
        s.powerMode = i % 2 ? er::hw::PowerMode::W30
                            : er::hw::PowerMode::MaxN;
        fc.nodes.push_back(s);
    }
    fc.server.maxBatch = 6;
    fc.router = p;
    fc.maxRetries = 3;
    fc.retryBackoff = 0.5;
    fc.hedgeFraction = 0.35;
    fc.requestTimeout = 45.0;
    fc.healthFailureThreshold = 2;
    fc.healthCooldown = 12.0;
    fc.paranoid = true;
    fc.nodeFaults.seed = 0xD00B;
    fc.nodeFaults.horizon = 300.0;
    fc.nodeFaults.crashesPerHour = 120.0;
    fc.nodeFaults.meanRebootSeconds = 10.0;
    fc.nodeFaults.degradesPerHour = 45.0;
    fc.nodeFaults.meanDegradeSeconds = 15.0;
    return fc;
}

std::vector<ServerRequest>
recoveryTrace()
{
    er::Rng rng(7, "fleet-recovery");
    auto t = ServingSimulator::poissonTrace(rng, 28, 1.5, 96, 224);
    for (auto &r : t)
        r.deadline = 75.0;
    return t;
}

/**
 * Run @p fc to the injected crash point, then resume from the latest
 * checkpoint and return the finished report.  The config's journalDir
 * (when set) makes the resume also byte-verify each node's re-emitted
 * journal tail against the pre-crash file.
 */
std::string
runCrashResume(const FleetConfig &fc,
               const std::vector<ServerRequest> &trace,
               const std::filesystem::path &dir,
               FleetDurabilityOptions crash_dur)
{
    crash_dur.checkpointDir = (dir / "ckpt").string();
    if (crash_dur.checkpointEvery == 0)
        crash_dur.checkpointEvery = 20;
    bool crashed = false;
    try {
        FleetSimulator sim(fc);
        sim.run(trace, crash_dur);
    } catch (const FleetSimulatedCrash &) {
        crashed = true;
    }
    EXPECT_TRUE(crashed) << "crash point was never reached";

    FleetDurabilityOptions res;
    res.checkpointDir = crash_dur.checkpointDir;
    res.checkpointEvery = crash_dur.checkpointEvery;
    res.resume = true;
    FleetSimulator sim(fc);
    return formatFleetReport(sim.run(trace, res));
}

// --- Tentpole: crash-resume bit-identity -----------------------------

TEST(FleetRecovery, CrashResumeMatrixIsBitIdentical)
{
    std::filesystem::remove_all(kArtifacts);
    const auto trace = recoveryTrace();
    const RouterPolicy policies[] = {
        RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded,
        RouterPolicy::DeadlineAware, RouterPolicy::CostAware};

    for (const RouterPolicy p : policies) {
        // The baseline runs with no durability machinery at all:
        // checkpointing must never perturb the simulation.
        FleetSimulator base(recoveryConfig(p));
        const std::string uninterrupted =
            formatFleetReport(base.run(trace));

        for (const std::int64_t crash_event : {30ll, 90ll}) {
            for (const unsigned threads : {1u, 2u, 4u}) {
                SCOPED_TRACE(std::string(routerPolicyName(p)) +
                             " crash@" + std::to_string(crash_event) +
                             " threads=" + std::to_string(threads));
                er::ThreadPool::setGlobalThreads(threads);
                const auto dir = kArtifacts /
                    (std::string(routerPolicyName(p)) + "-e" +
                     std::to_string(crash_event) + "-t" +
                     std::to_string(threads));
                FleetConfig fc = recoveryConfig(p);
                fc.journalDir = (dir / "journals").string();
                FleetDurabilityOptions dur;
                dur.crashAtEvent = crash_event;
                EXPECT_EQ(runCrashResume(fc, trace, dir, dur),
                          uninterrupted);
            }
        }
    }
    er::ThreadPool::setGlobalThreads(0);
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

// --- Lazy sync: checkpoints leave segmentation alone -----------------

TEST(FleetRecovery, CheckpointEveryEventGrayIsBitIdentical)
{
    // A checkpoint serializes lazily synced nodes where they stand: it
    // must neither advance a node nor split its decode segments.  So a
    // Gray run that checkpoints at every event reports bit for bit
    // what the plain run does — energy included, whose round-off
    // depends on how a node's steps group into segments.
    std::filesystem::remove_all(kArtifacts);
    FleetConfig fc = recoveryConfig(RouterPolicy::DeadlineAware);
    fc.maxRetries = 2;
    fc.adaptiveHealth = true;
    fc.healthMinSamples = 4;
    fc.nodeFaults.slowdownsPerHour = 90.0;
    fc.nodeFaults.meanSlowdownSeconds = 30.0;
    fc.nodeFaults.slowdownMultiplier = 6.0;
    const auto trace = recoveryTrace();
    FleetSimulator base(fc);
    const FleetReport want = base.run(trace);
    EXPECT_GT(want.failovers + want.retries + want.hedgesLaunched, 0u);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        er::ThreadPool::setGlobalThreads(threads);
        FleetDurabilityOptions dur;
        dur.checkpointDir =
            (kArtifacts / ("every-event-t" + std::to_string(threads)) /
             "ckpt")
                .string();
        dur.checkpointEvery = 1;
        FleetSimulator sim(fc);
        const FleetReport got = sim.run(trace, dur);
        EXPECT_EQ(formatFleetReport(got), formatFleetReport(want));
        EXPECT_EQ(got.totalEnergy, want.totalEnergy);
    }
    er::ThreadPool::setGlobalThreads(0);
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

// --- Checkpoint wire: determinism and fingerprint --------------------

/** @return the bytes of every file in @p dir, keyed by file name. */
std::map<std::string, std::string>
readFiles(const std::filesystem::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[entry.path().filename().string()] = bytes.str();
    }
    return files;
}

void
expectSameFiles(const std::filesystem::path &a,
                const std::filesystem::path &b)
{
    const auto fa = readFiles(a), fb = readFiles(b);
    ASSERT_EQ(fa.size(), fb.size());
    for (const auto &[name, bytes] : fa) {
        const auto it = fb.find(name);
        ASSERT_NE(it, fb.end()) << name << " missing from " << b;
        EXPECT_TRUE(it->second == bytes) << name << " differs";
    }
}

/** @return FNV-1a over every file in @p dir in name order, chaining
 *  each file's name and bytes. */
std::uint64_t
hashFiles(const std::filesystem::path &dir)
{
    std::uint64_t h = er::fnv1a("");
    for (const auto &[name, bytes] : readFiles(dir)) {
        h = er::fnv1a(name, h);
        h = er::fnv1a(bytes, h);
    }
    return h;
}

/** A checkpoint file's run fingerprint and payload. */
struct CheckpointParts
{
    std::uint64_t fingerprint = 0;
    std::string payload;
};

CheckpointParts
readCheckpoint(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string file = buf.str();
    // Header: magic (8), version (4), fingerprint (8), length (8);
    // the checksum (8) trails the payload.
    return {er::ByteReader(std::string_view(file).substr(12, 8)).u64(),
            file.substr(28, file.size() - 36)};
}

/** Rewrap @p payload in a valid container (length, checksum) at
 *  @p path, so a resume reaches the payload reader. */
void
writeCheckpoint(const std::filesystem::path &path, std::uint64_t fp,
                std::string_view payload)
{
    er::ByteWriter w;
    for (const char c : payload)
        w.u8(static_cast<std::uint8_t>(c));
    er::engine::writeCheckpointFile(path.string(), fp, w);
}

TEST(FleetRecovery, CheckpointBytesAreDeterministic)
{
    // Live tracks and each node's local->gid map are hash maps; the
    // checkpoint writes them sorted, so two runs crashed at the same
    // event leave byte-identical checkpoint files.  The resumed run
    // then writes its later checkpoints byte-identical to an
    // uninterrupted run's: track slots, the free-slot stack and the
    // compacted node records all round-trip exactly.  The trace is
    // dense enough that tracks pile up and drain, so a restored hash
    // map iterates in a different order from the uninterrupted run's
    // (writing either unsorted fails this test).
    std::filesystem::remove_all(kArtifacts);
    er::Rng rng(7, "fleet-recovery");
    auto trace = ServingSimulator::poissonTrace(rng, 80, 8.0, 96, 224);
    for (auto &r : trace)
        r.deadline = 75.0;
    const FleetConfig fc = recoveryConfig(RouterPolicy::DeadlineAware);
    FleetDurabilityOptions dur;
    dur.checkpointEvery = 20;
    dur.crashAtEvent = 150;
    for (const char *run : {"a", "b"}) {
        dur.checkpointDir = (kArtifacts / run).string();
        FleetSimulator sim(fc);
        EXPECT_THROW(sim.run(trace, dur), FleetSimulatedCrash);
    }
    EXPECT_EQ(readFiles(kArtifacts / "a").size(), 8u); // events 0..140
    expectSameFiles(kArtifacts / "a", kArtifacts / "b");

    FleetDurabilityOptions res;
    res.checkpointDir = (kArtifacts / "b").string();
    res.checkpointEvery = dur.checkpointEvery;
    res.resume = true;
    FleetSimulator resumed(fc);
    const std::string resumed_rep =
        formatFleetReport(resumed.run(trace, res));

    FleetDurabilityOptions whole;
    whole.checkpointDir = (kArtifacts / "c").string();
    whole.checkpointEvery = dur.checkpointEvery;
    FleetSimulator base(fc);
    EXPECT_EQ(formatFleetReport(base.run(trace, whole)), resumed_rep);
    EXPECT_GT(readFiles(kArtifacts / "c").size(), 5u);
    expectSameFiles(kArtifacts / "b", kArtifacts / "c");
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

TEST(FleetRecovery, ResumeRefusesAPerturbedTrace)
{
    // The checkpoint fingerprint hashes the whole trace: a resume
    // against a trace that differs in one request, or in length, is
    // refused with an error naming the fingerprint.
    std::filesystem::remove_all(kArtifacts);
    const auto trace = recoveryTrace();
    const FleetConfig fc = recoveryConfig(RouterPolicy::LeastLoaded);
    FleetDurabilityOptions dur;
    dur.checkpointDir = (kArtifacts / "ckpt").string();
    dur.checkpointEvery = 20;
    dur.crashAtEvent = 50;
    {
        FleetSimulator sim(fc);
        EXPECT_THROW(sim.run(trace, dur), FleetSimulatedCrash);
    }
    auto changed = trace;
    changed[trace.size() - 1].outputTokens += 1;
    auto shorter = trace;
    shorter.pop_back();
    FleetDurabilityOptions res;
    res.checkpointDir = dur.checkpointDir;
    res.resume = true;
    for (const auto *t : {&changed, &shorter}) {
        FleetSimulator sim(fc);
        try {
            sim.run(*t, res);
            ADD_FAILURE() << "resume accepted a different trace";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << e.what();
        }
    }
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

TEST(FleetRecovery, ResumeRefusesAChangedDegradePolicy)
{
    // The fleet fingerprint hashes the server knobs and behavioural
    // fault content through the single-node fingerprint's writers: a
    // resume under a different degrade budget, preemption retry limit
    // or backoff, or thermal ambient is refused like a changed trace.
    std::filesystem::remove_all(kArtifacts);
    const auto trace = recoveryTrace();
    FleetConfig fc = recoveryConfig(RouterPolicy::LeastLoaded);
    fc.server.degrade.mode = er::engine::DegradeMode::Budget;
    fc.server.degrade.budget = er::strategy::TokenPolicy::hard(256);
    FleetDurabilityOptions dur;
    dur.checkpointDir = (kArtifacts / "ckpt").string();
    dur.checkpointEvery = 20;
    dur.crashAtEvent = 50;
    {
        FleetSimulator sim(fc);
        EXPECT_THROW(sim.run(trace, dur), FleetSimulatedCrash);
    }
    std::vector<FleetConfig> changed(4, fc);
    changed[0].server.degrade.budget = er::strategy::TokenPolicy::hard(16);
    changed[1].server.degrade.maxRetries += 1;
    changed[2].server.degrade.retryBackoff *= 2.0;
    changed[3].nodeFaults.behavioural.thermalSpec.ambientC += 10.0;
    FleetDurabilityOptions res;
    res.checkpointDir = dur.checkpointDir;
    res.resume = true;
    for (const FleetConfig &c : changed) {
        FleetSimulator sim(c);
        try {
            sim.run(trace, res);
            ADD_FAILURE() << "resume accepted a different configuration";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << e.what();
        }
    }
    // The unchanged configuration still resumes.
    FleetSimulator same(fc);
    EXPECT_NO_THROW(same.run(trace, res));
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

TEST(FleetRecovery, ResumesWithHedgedLegsAndTrippedBreaker)
{
    // A gray node 0 (12x slowdown, never crashed) with a 10 s per-try
    // timeout: its legs keep timing out, so the 2-failure breaker is
    // tripped and re-tripped throughout, hedges fire against the slow
    // primary, and the crash instants land while hedged legs are in
    // flight and node 0 is cooling down.  Resume must reproduce all
    // of it — in-flight legs, breaker state, retry budgets — exactly.
    std::filesystem::remove_all(kArtifacts);
    FleetConfig fc = recoveryConfig(RouterPolicy::RoundRobin);
    fc.nodeFaults.crashesPerHour = 0.0; // fail-stop off: gray only
    fc.nodeFaults.degradesPerHour = 0.0;
    fc.requestTimeout = 10.0;
    // Hedge early (at 10% of the deadline budget): the slow node-0
    // primaries are still in flight then, so hedges actually launch.
    fc.hedgeFraction = 0.9;
    fc.explicitSchedules.resize(fc.nodes.size());
    fc.explicitSchedules[0].slowdowns.push_back({0.0, 1e6, 12.0});

    const auto trace = recoveryTrace();
    FleetSimulator base(fc);
    const auto base_rep = base.run(trace);
    const std::string uninterrupted = formatFleetReport(base_rep);
    // The scenario must actually contain the hard state: hedged legs,
    // breaker trips (retries after node-0 timeouts), no crashes.
    EXPECT_GT(base_rep.hedgesLaunched, 0u);
    EXPECT_GT(base_rep.retries, 0u);
    EXPECT_GE(base_rep.nodes[0].timedOut,
              static_cast<std::size_t>(fc.healthFailureThreshold));
    EXPECT_EQ(base_rep.nodes[0].crashes, 0u);

    // Pins over the checkpoint files (live legs, hedge slots, breaker
    // state) and the per-node journals: both resumes leave the
    // uninterrupted durable run's files.
    const std::uint64_t kCkptHash = 0xfa6dd4734480da7cull;
    const std::uint64_t kJournalHash = 0x697d5d47561c5d75ull;
    int idx = 0;
    for (const double crash_time : {15.0, 30.0}) {
        SCOPED_TRACE("crash at t=" + std::to_string(crash_time));
        FleetConfig jfc = fc;
        const auto dir =
            kArtifacts / ("hedged-t" + std::to_string(idx++));
        jfc.journalDir = (dir / "journals").string();
        FleetDurabilityOptions dur;
        dur.crashAtTime = crash_time;
        dur.checkpointEvery = 10;
        EXPECT_EQ(runCrashResume(jfc, trace, dir, dur),
                  uninterrupted);
        EXPECT_EQ(hashFiles(dir / "ckpt"), kCkptHash);
        EXPECT_EQ(hashFiles(dir / "journals"), kJournalHash);
    }
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

// --- Reader-side checks and all-or-nothing resume ---------------------

TEST(FleetRecovery, WireCountsKindsAndNodeIdsAreChecked)
{
    // A corrupt count fails as a fatal() naming its offset before any
    // allocation, never as a std::length_error or std::bad_alloc: the
    // node's served records, and the fleet's event heap (its fold
    // latencies and sync marks share the same reader call).  So does
    // an event kind byte past the last kind, which the run would
    // otherwise only meet as a panic.  A node id past the fleet, in an
    // event or a live track's leg, is a fatal() too, not an
    // out-of-bounds read of the node tables.
    er::engine::ServerConfig cfg;
    FleetNode node(0, NodeSpec{}, cfg, er::engine::FaultPlan());
    er::ByteWriter w;
    er::put(w, node);
    std::string wire = w.bytes();
    // Liveness, incarnation, submissions, two empty counts, lifetime
    // totals, the compaction base and released tallies come first.
    er::ByteWriter count;
    count.u64(1ull << 27);
    wire.replace(97, 8, count.bytes());
    FleetNode fresh(0, NodeSpec{}, cfg, er::engine::FaultPlan());
    er::ByteReader r(wire);
    try {
        fresh.io(r);
        ADD_FAILURE() << "a 2^27 served count was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("count 134217728 at offset 97"),
                  std::string::npos)
            << e.what();
    }

    std::filesystem::remove_all(kArtifacts);
    const auto trace = recoveryTrace();
    const FleetConfig fc = recoveryConfig(RouterPolicy::LeastLoaded);
    FleetDurabilityOptions dur;
    dur.checkpointDir = (kArtifacts / "ckpt").string();
    dur.checkpointEvery = 20;
    dur.crashAtEvent = 50;
    {
        FleetSimulator sim(fc);
        EXPECT_THROW(sim.run(trace, dur), FleetSimulatedCrash);
    }
    const auto path = er::engine::listCheckpoints(dur.checkpointDir)
                          .back()
                          .second;
    const CheckpointParts ck = readCheckpoint(path);
    // Clock, sequence, event count, draw cursor and the pending
    // request (48 bytes of fields, an empty hash list) precede the
    // heap count; the first event's kind follows its time.
    ASSERT_EQ(er::ByteReader(std::string_view(ck.payload).substr(80, 8)).u64(),
              0u);
    FleetDurabilityOptions res;
    res.checkpointDir = dur.checkpointDir;
    res.resume = true;
    const auto expect_refused = [&](std::string payload, const char *msg) {
        writeCheckpoint(path, ck.fingerprint, payload);
        FleetSimulator sim(fc);
        try {
            sim.run(trace, res);
            ADD_FAILURE() << "resume accepted: " << msg;
        } catch (const std::runtime_error &e) {
            // Every refusal names where the reader stood.
            const std::string what = e.what();
            EXPECT_NE(what.find(msg), std::string::npos) << what;
            EXPECT_NE(what.find(" offset "), std::string::npos) << what;
        }
    };
    std::string heap = ck.payload;
    heap.replace(88, 8, count.bytes());
    expect_refused(heap, "count 134217728 at offset 88");
    std::string kind = ck.payload;
    kind[104] = 9;
    expect_refused(kind, "enum byte 9 at offset 104");
    // Each event is 58 bytes: time, kind, seq, gid, then the node.
    const std::uint64_t nheap =
        er::ByteReader(std::string_view(ck.payload).substr(88, 8)).u64();
    er::ByteWriter node5;
    node5.i64(5);
    std::string event_node = ck.payload;
    event_node.replace(96 + 25, 8, node5.bytes());
    expect_refused(event_node, "names node 5");
    // The slot count, the live count, then the first live track: its
    // slot, request (no prefix hashes), gid and deadline, then leg 0.
    const std::size_t tracks = 96 + 58 * nheap;
    ASSERT_GT(er::ByteReader(std::string_view(ck.payload).substr(
                                 tracks + 8, 8))
                  .u64(),
              0u);
    std::string leg_node = ck.payload;
    leg_node.replace(tracks + 16 + 80, 8, node5.bytes());
    expect_refused(leg_node, "has a leg on node 5");
    // The track's gid follows its request: one past the draw cursor
    // was never drawn.
    er::ByteWriter undrawn_gid;
    undrawn_gid.i64(static_cast<std::int64_t>(
        er::ByteReader(std::string_view(ck.payload).substr(24, 8)).u64()));
    std::string undrawn = ck.payload;
    undrawn.replace(tracks + 16 + 64, 8, undrawn_gid.bytes());
    expect_refused(undrawn, "was never drawn");
    // The first live track's slot, claimed past the slot count.
    er::ByteWriter far_slot;
    far_slot.u64(1u << 20);
    std::string slot = ck.payload;
    slot.replace(tracks + 16, 8, far_slot.bytes());
    expect_refused(slot, "is out of range or claimed twice");
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

TEST(FleetRecovery, RefusedResumeLeavesJournalsUntouched)
{
    // DESIGN.md §9: resume is all or nothing.  A checkpoint refused
    // after every node has been read — trailing bytes, or saved under
    // the wrong event name — must not have cut any node's journal
    // tail; the intact checkpoint then still resumes.
    std::filesystem::remove_all(kArtifacts);
    const auto trace = recoveryTrace();
    FleetConfig fc = recoveryConfig(RouterPolicy::LeastLoaded);
    fc.journalDir = (kArtifacts / "journals").string();
    FleetDurabilityOptions dur;
    dur.checkpointDir = (kArtifacts / "ckpt").string();
    dur.checkpointEvery = 20;
    dur.crashAtEvent = 50;
    {
        FleetSimulator sim(fc);
        EXPECT_THROW(sim.run(trace, dur), FleetSimulatedCrash);
    }
    const auto journals = readFiles(kArtifacts / "journals");
    const auto [event, path] =
        er::engine::listCheckpoints(dur.checkpointDir).back();
    const CheckpointParts ck = readCheckpoint(path);
    FleetDurabilityOptions res;
    res.checkpointDir = dur.checkpointDir;
    res.resume = true;
    const auto expect_refused = [&](const char *msg) {
        FleetSimulator sim(fc);
        try {
            sim.run(trace, res);
            ADD_FAILURE() << "resume accepted: " << msg;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(msg), std::string::npos)
                << e.what();
        }
        const auto now = readFiles(kArtifacts / "journals");
        EXPECT_TRUE(now == journals) << "journals changed: " << msg;
    };
    writeCheckpoint(path, ck.fingerprint, ck.payload + '\0');
    expect_refused("trailing byte");
    writeCheckpoint(path, ck.fingerprint, ck.payload);
    const auto misnamed =
        er::engine::checkpointPath(dur.checkpointDir, event + 1);
    std::filesystem::rename(path, misnamed);
    expect_refused("is named for event");
    std::filesystem::rename(misnamed, path);
    FleetSimulator sim(fc);
    EXPECT_NO_THROW(sim.run(trace, res));
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

TEST(FleetRecovery, TruncatedCheckpointPayloadsFailWithAnOffset)
{
    // A small real fleet checkpoint — live tracks with hedged legs,
    // free slots, fold latencies, a pending heap, breaker state and
    // three serving nodes — cut at every payload offset and rewrapped
    // in a valid container.  Each resume must end in a fatal()
    // (std::runtime_error) naming an offset, never in a logic_error,
    // length_error, bad_alloc or a sanitizer report.
    std::filesystem::remove_all(kArtifacts);
    const auto trace = recoveryTrace();
    const FleetConfig fc = recoveryConfig(RouterPolicy::DeadlineAware);
    FleetDurabilityOptions dur;
    dur.checkpointDir = (kArtifacts / "ckpt").string();
    dur.checkpointEvery = 20;
    dur.crashAtEvent = 50;
    {
        FleetSimulator sim(fc);
        EXPECT_THROW(sim.run(trace, dur), FleetSimulatedCrash);
    }
    const auto path = er::engine::listCheckpoints(dur.checkpointDir)
                          .back()
                          .second;
    const CheckpointParts ck = readCheckpoint(path);
    FleetDurabilityOptions res;
    res.checkpointDir = dur.checkpointDir;
    res.resume = true;
    std::size_t fatals = 0;
    for (std::size_t cut = 0; cut < ck.payload.size(); ++cut) {
        writeCheckpoint(path, ck.fingerprint,
                        std::string_view(ck.payload).substr(0, cut));
        FleetSimulator sim(fc);
        try {
            sim.run(trace, res);
            ADD_FAILURE() << "cut at " << cut << " resumed";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("offset"), std::string::npos)
                << "cut at " << cut << ": " << msg;
            ++fatals;
        }
    }
    EXPECT_EQ(fatals, ck.payload.size());
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

// --- Gray failure + quantile-adaptive health -------------------------

TEST(FleetRecovery, GrayNodeIsEjectedByQuantileBreaker)
{
    // Node 0 is alive, responsive, and 10x slow: it completes every
    // leg, so the consecutive-failure breaker never fires.  Only the
    // latency-quantile breaker can see it.
    FleetConfig fc;
    fc.nodes.assign(3, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::RoundRobin;
    fc.paranoid = true;
    fc.adaptiveHealth = true;
    fc.healthQuantile = 0.9;
    fc.healthLatencyMultiple = 2.0;
    fc.healthMinSamples = 4;
    fc.healthCooldown = 60.0;
    fc.explicitSchedules.resize(3);
    fc.explicitSchedules[0].slowdowns.push_back({0.0, 1e6, 10.0});

    er::Rng rng(11, "fleet-gray");
    auto trace = ServingSimulator::poissonTrace(rng, 36, 1.0, 96, 192);
    for (auto &r : trace)
        r.deadline = 120.0;

    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_GE(rep.adaptiveEjections, 1u);
    EXPECT_EQ(rep.nodes[0].crashes, 0u); // gray, not fail-stop
    EXPECT_EQ(rep.served + rep.timedOut + rep.shed + rep.offloaded,
              rep.arrivals);
    // The report carries the ejection tally (printed only when the
    // adaptive breaker is on, so legacy goldens never change).
    EXPECT_NE(formatFleetReport(rep).find("adaptive-health ejections"),
              std::string::npos);
}

TEST(FleetRecovery, AdaptiveBreakerBeatsStaticUnderStraggler)
{
    // Same straggler fleet, breaker on vs. off: ejecting the gray
    // node reroutes work to healthy nodes and must win on goodput.
    FleetConfig fc;
    fc.nodes.assign(3, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::RoundRobin;
    fc.paranoid = true;
    fc.healthCooldown = 1e6;
    fc.explicitSchedules.resize(3);
    // A moderate (5x) straggler: slow legs still *complete* early
    // enough to feed the latency quantile while arrivals are ongoing
    // (a harsher slowdown would only finish its first leg after the
    // arrival window closes, and ejecting then changes nothing), yet
    // 5x pushes the node past saturation so its queue — and its
    // deadline misses — grow for as long as the router keeps feeding
    // it.
    fc.explicitSchedules[0].slowdowns.push_back({0.0, 1e6, 5.0});

    er::Rng rng(13, "fleet-straggler");
    auto trace = ServingSimulator::poissonTrace(rng, 100, 1.2, 96, 192);
    for (auto &r : trace)
        r.deadline = 45.0;

    FleetSimulator stat(fc);
    const auto static_rep = stat.run(trace);

    fc.adaptiveHealth = true;
    fc.healthQuantile = 0.9;
    fc.healthLatencyMultiple = 2.0;
    fc.healthMinSamples = 4;
    FleetSimulator adap(fc);
    const auto adaptive_rep = adap.run(trace);

    EXPECT_GE(adaptive_rep.adaptiveEjections, 1u);
    EXPECT_GT(adaptive_rep.goodput, static_rep.goodput);
}

TEST(FleetRecovery, CrashResumeUnderAdaptiveHealthIsBitIdentical)
{
    // Adaptive health and adaptive per-try timeouts on, node 0 slowed
    // 4x.  The fleet median the detector and the timeouts read is
    // derived from the per-node P² quantiles and rebuilt on restore:
    // a crash before any node has healthMinSamples completions (the
    // median set restores empty) and one after (it restores full)
    // must both resume to the uninterrupted report, and leave
    // checkpoint files whose bytes are pinned.
    std::filesystem::remove_all(kArtifacts);
    FleetConfig fc;
    fc.nodes.assign(3, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.server.maxBatch = 6;
    fc.router = RouterPolicy::LeastLoaded;
    fc.paranoid = true;
    fc.maxRetries = 3;
    fc.retryBackoff = 0.5;
    fc.requestTimeout = 45.0;
    fc.adaptiveHealth = true;
    fc.healthQuantile = 0.9;
    fc.healthLatencyMultiple = 2.0;
    fc.healthMinSamples = 4;
    fc.healthCooldown = 30.0;
    fc.adaptiveTimeoutMultiple = 3.0;
    fc.explicitSchedules.resize(fc.nodes.size());
    fc.explicitSchedules[0].slowdowns.push_back({0.0, 1e6, 4.0});

    // Three lone requests 10 s apart, a burst from t = 30 s, a quiet
    // gap, and a second burst from t = 200 s.
    er::Rng rng(17, "fleet-adaptive-resume");
    std::vector<ServerRequest> trace;
    for (int i = 0; i < 3; ++i) {
        ServerRequest r;
        r.arrival = 10.0 * i;
        r.inputTokens = 96;
        r.outputTokens = 160;
        trace.push_back(r);
    }
    for (const er::Seconds start : {30.0, 200.0}) {
        for (ServerRequest r :
             ServingSimulator::poissonTrace(rng, 18, 1.5, 96, 224)) {
            r.arrival += start;
            trace.push_back(r);
        }
    }
    for (auto &r : trace)
        r.deadline = 75.0;

    // Every completion belongs to a request that arrived earlier, so
    // before t = 29 s at most three have completed: no node reaches
    // healthMinSamples.  The first burst finishes inside the gap
    // (deadline 75 s), and events before t = 200 s do not depend on
    // later arrivals, so a run on the first two parts alone counts
    // what has completed by t = 200 s.  More than nodes × 3
    // completions means some node has at least four.
    const er::Seconds before = 29.0, after = 205.0;
    ASSERT_GE(trace[3].arrival, before);
    {
        const std::vector<ServerRequest> head(trace.begin(),
                                              trace.begin() + 21);
        ASSERT_LT(head.back().arrival + 75.0, 200.0);
        FleetSimulator sim(fc);
        EXPECT_GT(sim.run(head).served, 3 * fc.nodes.size());
    }

    FleetSimulator base(fc);
    const auto base_rep = base.run(trace);
    const std::string uninterrupted = formatFleetReport(base_rep);
    EXPECT_GE(base_rep.adaptiveEjections, 1u);
    EXPECT_GT(base_rep.retries, 0u); // adaptive timeouts bite

    // A checkpoint every event, so each resume restores the state at
    // its crash point.  Both resumes leave the uninterrupted durable
    // run's full checkpoint set: the crashed run wrote the files up
    // to its crash, the resumed run the rest.  The pin covers each
    // file's header, so it moves with the fleet fingerprint's layout.
    const std::uint64_t kCkptHash = 0xe57ef10381240b1full;
    for (const er::Seconds crash_at : {before, after}) {
        SCOPED_TRACE("crash at t=" + std::to_string(crash_at));
        const auto dir = kArtifacts /
            ("adaptive-t" + std::to_string(static_cast<int>(crash_at)));
        FleetDurabilityOptions dur;
        dur.crashAtTime = crash_at;
        dur.checkpointEvery = 1;
        EXPECT_EQ(runCrashResume(fc, trace, dir, dur), uninterrupted);
        EXPECT_EQ(hashFiles(dir / "ckpt"), kCkptHash);
    }
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(kArtifacts);
}

TEST(FleetRecovery, AdaptiveStateOffLeavesReportsUntouched)
{
    // With no slowdown windows and adaptive health off, the durable
    // run path must not perturb the legacy fleet arithmetic: the
    // plain run() and the run(trace, {}) overload agree exactly.
    const auto trace = recoveryTrace();
    FleetSimulator a(recoveryConfig(RouterPolicy::CostAware));
    FleetSimulator b(recoveryConfig(RouterPolicy::CostAware));
    EXPECT_EQ(formatFleetReport(a.run(trace)),
              formatFleetReport(
                  b.run(trace, FleetDurabilityOptions{})));
}

// --- Static breaker boundary behavior --------------------------------

/** Two nodes; node 0 is slowed so only its legs blow the per-try
 *  timeout; node 1 completes every leg comfortably. */
FleetConfig
breakerConfig(int threshold, er::Seconds cooldown, er::Seconds slow_until)
{
    FleetConfig fc;
    fc.nodes.assign(2, NodeSpec{er::model::ModelId::DeepScaleR1_5B});
    fc.router = RouterPolicy::RoundRobin;
    fc.paranoid = true;
    fc.maxRetries = 3;
    fc.retryBackoff = 0.25;
    fc.requestTimeout = 8.0; // ~3 s healthy service, ~50 s slowed
    fc.healthFailureThreshold = threshold;
    fc.healthCooldown = cooldown;
    fc.explicitSchedules.resize(2);
    fc.explicitSchedules[0].slowdowns.push_back(
        {0.0, slow_until, 20.0});
    return fc;
}

std::vector<ServerRequest>
spacedTrace(std::size_t n, er::Seconds gap)
{
    std::vector<ServerRequest> t(n);
    for (std::size_t i = 0; i < n; ++i) {
        t[i].arrival = gap * static_cast<double>(i);
        t[i].inputTokens = 64;
        t[i].outputTokens = 128;
    }
    return t;
}

TEST(FleetBreaker, TripsAtExactlyTheFailureThreshold)
{
    // With an effectively infinite cooldown, node 0 receives exactly
    // `threshold` legs — the trip happens on the Nth consecutive
    // failure, not before and not after.
    for (const int threshold : {3, 4}) {
        SCOPED_TRACE("threshold " + std::to_string(threshold));
        FleetConfig fc = breakerConfig(threshold, 1e9, 1e9);
        const auto trace = spacedTrace(14, 10.0);
        FleetSimulator sim(fc);
        const auto rep = sim.run(trace);
        EXPECT_EQ(rep.nodes[0].timedOut,
                  static_cast<std::size_t>(threshold));
        EXPECT_EQ(rep.nodes[0].served, 0u);
        // Every timed-out leg retries onto node 1; nothing is lost.
        EXPECT_EQ(rep.served, rep.arrivals);
        EXPECT_EQ(rep.nodes[1].served, rep.arrivals);
    }
}

TEST(FleetBreaker, HalfOpenProbeRecoversAHealedNode)
{
    // Node 0 is slow until t=100 and healthy after.  The breaker
    // trips during the slow window; once the cooldown lapses, the
    // half-open probe leg lands on a healed node, succeeds, and node
    // 0 rejoins the rotation for the rest of the run.
    FleetConfig fc = breakerConfig(3, 30.0, 100.0);
    const auto trace = spacedTrace(30, 10.0); // runs past t=290
    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_GT(rep.nodes[0].served, 0u) << "node 0 never recovered";
    EXPECT_GE(rep.nodes[0].timedOut, 3u);
    EXPECT_EQ(rep.served, rep.arrivals);
}

TEST(FleetBreaker, FlappingNodeRetripsDuringDrain)
{
    // Node 0 never heals: every half-open probe window accumulates
    // `threshold` fresh failures and re-trips the breaker.  Evidence
    // of at least one full re-trip cycle is > threshold node-0
    // timeouts — and still zero node-0 completions.
    FleetConfig fc = breakerConfig(2, 25.0, 1e9);
    // Self-reported health flaps while the node is also cooling down:
    // drain windows from two sources must compose, not cancel.
    fc.explicitSchedules[0].flaps.push_back({40.0, 5.0});
    fc.explicitSchedules[0].flaps.push_back({80.0, 5.0});
    const auto trace = spacedTrace(30, 10.0);
    FleetSimulator sim(fc);
    const auto rep = sim.run(trace);
    EXPECT_GT(rep.nodes[0].timedOut, 2u) << "never re-tripped";
    EXPECT_EQ(rep.nodes[0].served, 0u);
    EXPECT_EQ(rep.served, rep.arrivals);
}

} // namespace
