/**
 * @file
 * Write-ahead event journal for the serving simulator (DESIGN.md §9).
 * Every externally-visible simulation event — arrival, admission, batch
 * step, preemption, fault application, retirement (completion / timeout
 * / shed) — is appended as one checksummed record, flushed before the
 * simulator proceeds.  Because the simulator is deterministic, the
 * journal serves three roles at once:
 *
 *  - crash recovery: resume = load the latest checkpoint, truncate the
 *    journal after that checkpoint's mark, and re-execute; the re-run
 *    re-emits the truncated tail byte-for-byte (optionally verified);
 *  - replay: replayServingReport() re-derives the full ServingReport
 *    from a journal alone, through the same buildServingReport()
 *    arithmetic the live run uses — bit-identical results;
 *  - audit trail: dumpJournalText() renders the record stream for
 *    humans (the chaos CI job uploads failing journals as artifacts).
 *
 * On-disk format (all integers little-endian, doubles as IEEE-754 bit
 * patterns; see common/binio.hh):
 *
 *   header:  "EDGERJNL" | u32 version | u64 run fingerprint
 *   record:  u8 type | u32 payload length | payload | u64 checksum
 *
 * where the checksum is FNV-1a over the record bytes that precede it
 * (type, length, payload).  Readers fatal() on the first corrupt or
 * truncated record, reporting the byte offset and the expected/found
 * checksum — a damaged journal is never partially trusted.
 */

#ifndef EDGEREASON_ENGINE_JOURNAL_HH
#define EDGEREASON_ENGINE_JOURNAL_HH

#include <cstdint>
#include <deque>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "engine/server.hh"

namespace edgereason {
namespace engine {

/**
 * Journal format version (bump on any layout change).
 * v2: Step records carry a coalesced step count (macro-stepping) and
 * ExecAccumulators gained decodeSteps/macroSegments.
 * v3: requests carry sessionId/prefixHashes and ExecAccumulators
 * gained the prefix-cache accounting fields.
 */
inline constexpr std::uint32_t kJournalVersion = 3;

/** Record types of the write-ahead journal. */
enum class JournalRecordType : std::uint8_t {
    RunBegin = 1,   //!< trace size, policy, first arrival
    Arrival = 2,    //!< request pulled into the wait queue
    Admit = 3,      //!< request admitted (prefill started)
    Step = 4,       //!< one prefill chunk or decode step executed
    Preempt = 5,    //!< in-flight request evicted
    Fault = 6,      //!< fault event applied
    Retire = 7,     //!< terminal record (completed/timed-out/shed)
    CheckpointMark = 8, //!< a checkpoint file covers this prefix
    RunEnd = 9,     //!< clean completion (final accumulators)
};

/** @return human-readable record-type name. */
const char *journalRecordTypeName(JournalRecordType t);

/** One parsed record (checksum already verified). */
struct JournalRawRecord
{
    JournalRecordType type = JournalRecordType::RunBegin;
    std::string payload;
    std::uint64_t offset = 0; //!< byte offset of the record in the file
};

/** Fully parsed journal file. */
struct JournalContents
{
    std::uint32_t version = 0;
    std::uint64_t fingerprint = 0;
    std::vector<JournalRawRecord> records;
    std::uint64_t endOffset = 0; //!< file size consumed
};

/** ExecAccumulators field list (journal Step/RunEnd and checkpoints). */
template <class Ar>
void
io(Ar &a, ExecAccumulators &acc)
{
    a.f64(acc.clock);
    a.f64(acc.busy);
    a.f64(acc.throttledBusy);
    a.f64(acc.energy);
    a.f64(acc.batchTimeWeighted);
    a.f64(acc.committedKv);
    a.f64(acc.generatedTokens);
    a.u64(acc.preemptions);
    a.u64(acc.nextEvent);
    a.u64(acc.decodeSteps);
    a.u64(acc.macroSegments);
    a.f64(acc.admittedPromptTokens);
    a.f64(acc.cachedPrefixTokens);
    a.f64(acc.prefillSecondsSaved);
    a.u64(acc.prefixEvictions);
}

/**
 * Append-mode journal writer.  A default-constructed Journal is
 * inactive: every emitter is a no-op, so the executor can hold an
 * unconditional pointer.  Records are flushed to disk as they are
 * emitted (write-ahead: the event is durable before the simulator
 * builds on it).
 */
class Journal
{
  public:
    Journal() = default;
    Journal(Journal &&) = default;
    Journal &operator=(Journal &&) = default;

    /** Start a fresh journal at @p path (truncates any existing file). */
    static Journal createFresh(const std::string &path,
                               std::uint64_t fingerprint);

    /**
     * Reopen @p path for a resume from the checkpoint at @p step: the
     * file is validated end to end, truncated just after the matching
     * CheckpointMark record, and the truncated tail is retained.  With
     * @p verify_tail, each subsequently emitted record is compared
     * byte-for-byte against that tail — any divergence of the resumed
     * run from the pre-crash run is a fatal() (determinism violation).
     */
    static Journal resumeAt(const std::string &path,
                            std::uint64_t fingerprint,
                            std::uint64_t step, bool verify_tail);

    /** @return true when bound to a file (emitters write). */
    bool active() const { return out_ != nullptr; }
    const std::string &path() const { return path_; }

    void emitRunBegin(std::size_t trace_size, SchedulerPolicy policy,
                      Seconds first_arrival);
    void emitArrival(const TrackedRequest &r, std::size_t queue_depth);
    void emitAdmit(const TrackedRequest &r, Seconds clock);
    /**
     * @param kind   0 = prefill chunk, 1 = decode step.
     * @param count  whole-batch steps coalesced into this record (1 in
     *               exact mode and for prefill chunks; the macro
     *               executor emits one record per fast-forwarded
     *               segment with its horizon length K).
     */
    void emitStep(std::uint8_t kind, std::uint32_t count,
                  const ExecAccumulators &acc);
    void emitPreempt(const TrackedRequest &r, bool requeued,
                     std::size_t queue_depth,
                     std::uint64_t total_preemptions);
    void emitFault(const FaultEvent &e, Seconds clock_after);
    void emitRetire(const ServedRequest &s);
    void emitCheckpointMark(std::uint64_t step);
    void emitRunEnd(const ExecAccumulators &acc,
                    std::size_t peak_queue_depth);

  private:
    /** Encode @p rec through its field list and append it. */
    template <class R>
    void emitRecord(JournalRecordType type, const R &rec);
    void emit(JournalRecordType type, const ByteWriter &payload);

    std::unique_ptr<std::ofstream> out_;
    std::string path_;
    /** Pre-crash records still expected from the resumed run. */
    std::deque<JournalRawRecord> tail_;
    bool verifyTail_ = true;
};

/**
 * Parse and verify a journal file end to end.  fatal() on a missing /
 * malformed header, a version or magic mismatch, or any record whose
 * checksum fails or that is cut short — always reporting the byte
 * offset, and for checksum failures the expected and found values.
 */
JournalContents readJournal(const std::string &path);

/**
 * Re-derive the ServingReport from a journal alone: retired-request
 * records rebuild the served list, the final accumulator snapshot
 * (RunEnd, or the last Step of a crashed run's journal) supplies the
 * integrators, and the arrival/preempt records reconstruct the peak
 * queue depth.  Uses buildServingReport(), so the result is
 * bit-identical to the live run's report.
 */
ServingReport replayServingReport(const std::string &path);

/** Render every record as one human-readable line. */
void dumpJournalText(const std::string &path, std::ostream &os);

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_JOURNAL_HH
