/**
 * @file
 * Tests for the crash-safety plumbing (DESIGN.md §9): binio primitives,
 * the write-ahead journal (round trip, text dump, corruption detection),
 * and the checkpoint file container (atomic write, validation).  Every
 * malformed-input case asserts the loader fatal()s with a message that
 * names the byte offset — and, for checksum failures, the expected and
 * found values — and never partially restores.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/binio.hh"
#include "engine/checkpoint.hh"
#include "engine/journal.hh"
#include "engine/kv_cache.hh"
#include "model/zoo.hh"

namespace er = edgereason;
using namespace er::engine;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory under the system temp dir. */
std::string
scratchDir(const std::string &tag)
{
    const auto dir = fs::temp_directory_path() /
        ("edgereason_test_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
}

/** A small journal with one record of each common type. */
std::string
makeJournal(const std::string &dir, std::uint64_t fingerprint)
{
    const std::string path = dir + "/journal.bin";
    Journal j = Journal::createFresh(path, fingerprint);
    j.emitRunBegin(3, SchedulerPolicy::Edf, 0.25);
    TrackedRequest t;
    t.req.arrival = 0.25;
    t.req.inputTokens = 100;
    t.req.outputTokens = 200;
    t.traceIndex = 0;
    j.emitArrival(t, 1);
    j.emitCheckpointMark(0);
    t.effOut = 200;
    j.emitAdmit(t, 0.25);
    ExecAccumulators acc;
    acc.clock = 1.5;
    acc.busy = 1.0;
    acc.energy = 30.0;
    acc.generatedTokens = 7.0;
    j.emitStep(1, 1, acc);
    ServedRequest s;
    s.request = t.req;
    s.outcome = RequestOutcome::Completed;
    s.finish = 1.5;
    s.generated = 200;
    s.traceIndex = 0;
    j.emitRetire(s);
    j.emitRunEnd(acc, 2);
    return path;
}

/** Expect fn() to throw std::runtime_error whose message contains all
 *  of the given substrings. */
template <typename Fn>
void
expectFatalContaining(Fn &&fn, std::initializer_list<const char *> subs)
{
    try {
        fn();
        FAIL() << "expected a fatal()";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        for (const char *sub : subs)
            EXPECT_NE(msg.find(sub), std::string::npos)
                << "message lacks \"" << sub << "\": " << msg;
    }
}

} // namespace

// ---------------------------------------------------------------------
// binio primitives.
// ---------------------------------------------------------------------

TEST(BinIo, RoundTripsEveryType)
{
    er::ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.i64(-42);
    w.f64(-0.1);
    w.str("hello");
    er::ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), -0.1); // bit-exact, not approximate
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.atEnd());
    EXPECT_NO_THROW(r.expectEnd("test"));
}

TEST(BinIo, TruncatedReadReportsOffset)
{
    er::ByteWriter w;
    w.u32(7);
    er::ByteReader r(w.bytes());
    r.u8();
    expectFatalContaining([&] { r.u64(); }, {"offset 1"});
}

TEST(BinIo, TrailingBytesAreAnError)
{
    er::ByteWriter w;
    w.u32(7);
    er::ByteReader r(w.bytes());
    r.u8();
    expectFatalContaining([&] { r.expectEnd("unit"); },
                          {"unit", "trailing"});
}

TEST(BinIo, CountsAreBoundedByTheBytesLeft)
{
    er::ByteWriter w;
    w.u64(3);
    w.u64(0);
    er::ByteReader ok(w.bytes());
    EXPECT_EQ(ok.count(2), 3u); // 8 bytes left hold three 2-byte items
    er::ByteReader r(w.bytes());
    expectFatalContaining([&] { r.count(4); },
                          {"count 3 at offset 0", "8 remain"});
}

TEST(BinIo, EnumAndFlagBytesAreRangeChecked)
{
    er::ByteWriter w;
    w.u8(1);
    w.u8(2);
    w.u8(3);
    w.u8(4);
    er::ByteReader r(w.bytes());
    bool b = false;
    r.flag(b);
    EXPECT_TRUE(b);
    expectFatalContaining([&] { r.flag(b); }, {"flag byte 2 at offset 1"});
    RequestOutcome o = RequestOutcome::Completed;
    r.enum8(o, RequestOutcome::Cancelled);
    EXPECT_EQ(o, RequestOutcome::Cancelled);
    expectFatalContaining([&] { r.enum8(o, RequestOutcome::Cancelled); },
                          {"enum byte 4 at offset 3"});
}

TEST(BinIo, Fnv1aMatchesKnownVector)
{
    // FNV-1a reference: empty input hashes to the offset basis.
    EXPECT_EQ(er::fnv1a(""), 0xCBF29CE484222325ULL);
    EXPECT_NE(er::fnv1a("a"), er::fnv1a("b"));
}

// ---------------------------------------------------------------------
// Wire counts are bounded before anything is allocated: a corrupt count
// fails as a fatal() naming its offset, never as a std::length_error or
// std::bad_alloc from the container it would size.  (The fleet readers
// have theirs in test_fleet_recovery.)
// ---------------------------------------------------------------------

TEST(WireCounts, RequestPrefixHashCountIsBounded)
{
    // Every 8-byte field reads back correctly; only the count is bad.
    er::ByteWriter w;
    w.f64(1.0);
    w.i64(64);
    w.i64(64);
    w.i64(0);
    w.f64(0.0);
    w.i64(-1);
    w.u64(1ull << 61);
    er::ByteReader r(w.bytes());
    ServerRequest req;
    expectFatalContaining([&] { io(r, req); },
                          {"count 2305843009213693952 at offset 48"});
}

TEST(WireCounts, KvCacheBlockCountIsBounded)
{
    // A mid-sized count (2^27 blocks) would allocate and zero gigabytes
    // before failing on the bytes that are not there.
    const auto spec = er::model::spec(er::model::ModelId::Dsr1Qwen1_5B);
    PrefixCacheConfig pc;
    pc.enabled = true;
    const auto bytes =
        static_cast<er::Bytes>(spec.kvBytesPerToken() * 16.0 * 64.0);
    KvCache c(bytes, spec, 16, pc);
    const SeqId seq = c.createSequence();
    ASSERT_TRUE(c.append(seq, 40));
    er::ByteWriter w;
    er::put(w, c);
    std::string wire = w.bytes();
    // Geometry (24 bytes), blocks in use and next handle precede the
    // block count.
    er::ByteWriter count;
    count.u64(1ull << 27);
    wire.replace(40, 8, count.bytes());
    KvCache d(bytes, spec, 16, pc);
    er::ByteReader r(wire);
    expectFatalContaining([&] { d.io(r); },
                          {"count 134217728 at offset 40"});
}

// ---------------------------------------------------------------------
// Journal round trip and corruption detection.
// ---------------------------------------------------------------------

TEST(Journal, RoundTripsRecords)
{
    const auto dir = scratchDir("journal_rt");
    const auto path = makeJournal(dir, 0x1234);
    const auto contents = readJournal(path);
    EXPECT_EQ(contents.version, kJournalVersion);
    EXPECT_EQ(contents.fingerprint, 0x1234u);
    ASSERT_EQ(contents.records.size(), 7u);
    EXPECT_EQ(contents.records[0].type, JournalRecordType::RunBegin);
    EXPECT_EQ(contents.records[1].type, JournalRecordType::Arrival);
    EXPECT_EQ(contents.records[2].type,
              JournalRecordType::CheckpointMark);
    EXPECT_EQ(contents.records.back().type, JournalRecordType::RunEnd);
    fs::remove_all(dir);
}

TEST(Journal, DumpRendersOneLinePerRecord)
{
    const auto dir = scratchDir("journal_dump");
    const auto path = makeJournal(dir, 0x1234);
    std::ostringstream os;
    dumpJournalText(path, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("run-begin"), std::string::npos);
    EXPECT_NE(text.find("arrival"), std::string::npos);
    EXPECT_NE(text.find("checkpoint-mark step=0"), std::string::npos);
    EXPECT_NE(text.find("retire"), std::string::npos);
    EXPECT_NE(text.find("run-end"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Journal, DumpAndReplayCheckEnumBytes)
{
    // Valid checksums around out-of-range enum bytes: the run-begin
    // policy byte 9 and a fault kind byte 3 fail as fatal()s naming
    // their file offsets, where the policy and fault-kind name lookups
    // would panic.
    const auto dir = scratchDir("journal_enum");
    const std::string path = dir + "/journal.bin";
    {
        Journal j = Journal::createFresh(path, 0x1234);
        j.emitRunBegin(3, static_cast<SchedulerPolicy>(9), 0.25);
    }
    std::ostringstream os;
    // Header (20 bytes), record type and length (5), trace size (8).
    expectFatalContaining([&] { dumpJournalText(path, os); },
                          {"enum byte 9 at offset 33"});
    expectFatalContaining([&] { replayServingReport(path); },
                          {"enum byte 9 at offset 33"});
    {
        Journal j = Journal::createFresh(path, 0x1234);
        j.emitRunBegin(3, SchedulerPolicy::Edf, 0.25);
        FaultEvent e;
        e.kind = static_cast<FaultKind>(3);
        j.emitFault(e, 1.0);
    }
    // The 30-byte run-begin record, then the fault record's header.
    expectFatalContaining([&] { dumpJournalText(path, os); },
                          {"enum byte 3 at offset 55"});
    fs::remove_all(dir);
}

TEST(Journal, TruncatedFileReportsOffset)
{
    const auto dir = scratchDir("journal_trunc");
    const auto path = makeJournal(dir, 0x1234);
    const std::string data = readFile(path);
    // Cut inside the final record's checksum.
    writeFile(path, data.substr(0, data.size() - 3));
    expectFatalContaining([&] { readJournal(path); },
                          {"journal", "offset"});
    fs::remove_all(dir);
}

TEST(Journal, BitFlipReportsExpectedAndFoundChecksum)
{
    const auto dir = scratchDir("journal_flip");
    const auto path = makeJournal(dir, 0x1234);
    const auto contents = readJournal(path);
    // Flip a bit inside the Step record's payload (offset + type byte +
    // length field + 2), so the record checksum must catch it.
    const auto &step = contents.records[4];
    ASSERT_EQ(step.type, JournalRecordType::Step);
    std::string data = readFile(path);
    data[step.offset + 5 + 2] ^= 0x40;
    writeFile(path, data);
    expectFatalContaining(
        [&] { readJournal(path); },
        {"corrupt at offset", "expected checksum 0x", "found 0x"});
    fs::remove_all(dir);
}

TEST(Journal, BadMagicAndVersionAreRejected)
{
    const auto dir = scratchDir("journal_magic");
    const auto path = makeJournal(dir, 0x1234);
    std::string data = readFile(path);

    std::string bad = data;
    bad[0] = 'X';
    writeFile(path, bad);
    expectFatalContaining([&] { readJournal(path); }, {"magic"});

    bad = data;
    bad[8] = static_cast<char>(kJournalVersion + 1); // version field
    writeFile(path, bad);
    expectFatalContaining([&] { readJournal(path); }, {"version"});
    fs::remove_all(dir);
}

TEST(Journal, ResumeRefusesForeignFingerprint)
{
    const auto dir = scratchDir("journal_fp");
    const auto path = makeJournal(dir, 0x1234);
    expectFatalContaining(
        [&] { Journal::resumeAt(path, 0x9999, 0, true); },
        {"fingerprint"});
    fs::remove_all(dir);
}

TEST(Journal, ResumeNeedsAMatchingCheckpointMark)
{
    const auto dir = scratchDir("journal_mark");
    const auto path = makeJournal(dir, 0x1234);
    expectFatalContaining(
        [&] { Journal::resumeAt(path, 0x1234, 77, true); },
        {"checkpoint-mark", "77"});
    fs::remove_all(dir);
}

TEST(Journal, ReplayFailsWithoutRunBegin)
{
    const auto dir = scratchDir("journal_nobegin");
    const std::string path = dir + "/journal.bin";
    Journal j = Journal::createFresh(path, 1);
    ExecAccumulators acc;
    j.emitStep(1, 1, acc);
    expectFatalContaining([&] { replayServingReport(path); },
                          {"run-begin"});
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Checkpoint files.
// ---------------------------------------------------------------------

TEST(Checkpoint, RoundTripsPayload)
{
    const auto dir = scratchDir("ckpt_rt");
    er::ByteWriter payload;
    payload.u64(42);
    payload.str("state");
    const auto path = checkpointPath(dir, 16);
    writeCheckpointFile(path, 0xF00D, payload);
    const std::string back = loadCheckpointFile(path, 0xF00D);
    er::ByteReader r(back);
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.str(), "state");
    EXPECT_NO_THROW(r.expectEnd("payload"));
    // No temp file left behind (atomic rename).
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove_all(dir);
}

TEST(Checkpoint, ListsInStepOrder)
{
    const auto dir = scratchDir("ckpt_list");
    er::ByteWriter payload;
    payload.u64(1);
    writeCheckpointFile(checkpointPath(dir, 100), 1, payload);
    writeCheckpointFile(checkpointPath(dir, 8), 1, payload);
    writeCheckpointFile(checkpointPath(dir, 64), 1, payload);
    writeFile(dir + "/ckpt-junk.bin", "not a checkpoint");
    writeFile(dir + "/other.txt", "ignored");
    const auto list = listCheckpoints(dir);
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].first, 8u);
    EXPECT_EQ(list[1].first, 64u);
    EXPECT_EQ(list[2].first, 100u);
    fs::remove_all(dir);
}

TEST(Checkpoint, RejectsForeignFingerprintAndCorruption)
{
    const auto dir = scratchDir("ckpt_bad");
    er::ByteWriter payload;
    payload.u64(7);
    const auto path = checkpointPath(dir, 0);
    writeCheckpointFile(path, 0xAAA, payload);

    expectFatalContaining([&] { loadCheckpointFile(path, 0xBBB); },
                          {"fingerprint", "refusing to restore"});

    std::string data = readFile(path);
    std::string flipped = data;
    flipped[flipped.size() - 12] ^= 0x01; // payload byte
    writeFile(path, flipped);
    expectFatalContaining(
        [&] { loadCheckpointFile(path, 0xAAA); },
        {"corrupt at offset", "expected checksum 0x", "found 0x"});

    writeFile(path, data.substr(0, data.size() - 4));
    expectFatalContaining([&] { loadCheckpointFile(path, 0xAAA); },
                          {"truncated"});
    fs::remove_all(dir);
}
