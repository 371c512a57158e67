#include "engine/journal.hh"

#include <filesystem>
#include <iomanip>
#include <optional>
#include <ios>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

namespace {

constexpr char kJournalMagic[8] = {'E', 'D', 'G', 'E',
                                   'R', 'J', 'N', 'L'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;

std::string
headerBytes(std::uint64_t fingerprint)
{
    ByteWriter w;
    for (char c : kJournalMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kJournalVersion);
    w.u64(fingerprint);
    return w.bytes();
}

/** Frame one record: type | len | payload | fnv1a(everything before). */
std::string
frameRecord(JournalRecordType type, const std::string &payload)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    std::string frame = w.bytes() + payload;
    ByteWriter ck;
    ck.u64(fnv1a(frame));
    return frame + ck.bytes();
}

// --- Record payloads: one field list each, shared by the emitters,
// replay and the text dump.

struct RunBeginRecord
{
    std::uint64_t traceSize = 0;
    SchedulerPolicy policy = SchedulerPolicy::Fcfs;
    Seconds firstArrival = 0.0;

    template <class Ar>
    void io(Ar &a)
    {
        a.u64(traceSize);
        a.enum8(policy, SchedulerPolicy::Spjf);
        a.f64(firstArrival);
    }
};

struct ArrivalRecord
{
    std::int64_t traceIndex = -1;
    ServerRequest req;
    std::uint64_t queueDepth = 0;

    template <class Ar>
    void io(Ar &a)
    {
        a.i64(traceIndex);
        engine::io(a, req);
        a.u64(queueDepth);
    }
};

struct AdmitRecord
{
    std::int64_t traceIndex = -1;
    Seconds clock = 0.0;
    Tokens effOut = 0;
    bool degraded = false;
    SeqId seq = 0;

    template <class Ar>
    void io(Ar &a)
    {
        a.i64(traceIndex);
        a.f64(clock);
        a.i64(effOut);
        a.flag(degraded);
        a.u64(seq);
    }
};

struct StepRecord
{
    std::uint8_t kind = 0; //!< 0 = prefill chunk, 1 = decode step
    std::uint32_t count = 0;
    ExecAccumulators acc;

    template <class Ar>
    void io(Ar &a)
    {
        a.enum8(kind, std::uint8_t{1});
        a.u32(count);
        engine::io(a, acc);
    }
};

struct PreemptRecord
{
    std::int64_t traceIndex = -1;
    bool requeued = false;
    std::uint64_t queueDepth = 0;
    std::uint64_t totalPreemptions = 0;

    template <class Ar>
    void io(Ar &a)
    {
        a.i64(traceIndex);
        a.flag(requeued);
        a.u64(queueDepth);
        a.u64(totalPreemptions);
    }
};

struct FaultRecord
{
    FaultEvent event;
    Seconds clockAfter = 0.0;

    template <class Ar>
    void io(Ar &a)
    {
        a.enum8(event.kind, FaultKind::KvRestore);
        a.f64(event.time);
        a.f64(event.duration);
        a.f64(event.magnitude);
        a.f64(clockAfter);
    }
};

struct CheckpointMarkRecord
{
    std::uint64_t step = 0;

    template <class Ar>
    void io(Ar &a)
    {
        a.u64(step);
    }
};

struct RunEndRecord
{
    ExecAccumulators acc;
    std::uint64_t peakQueueDepth = 0;

    template <class Ar>
    void io(Ar &a)
    {
        engine::io(a, acc);
        a.u64(peakQueueDepth);
    }
};

/** Decode one record's payload through its field list; fatal() with
 *  the file offset on a short, overlong or out-of-range payload. */
template <class R>
R
decode(const JournalRawRecord &rec)
{
    ByteReader r(rec.payload, rec.offset + 5);
    R out;
    fields(r, out);
    r.expectEnd(journalRecordTypeName(rec.type));
    return out;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open journal file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    fatal_if(!in.good() && !in.eof(), "read error on journal file: ",
             path);
    return buf.str();
}

} // namespace

const char *
journalRecordTypeName(JournalRecordType t)
{
    switch (t) {
      case JournalRecordType::RunBegin:
        return "run-begin";
      case JournalRecordType::Arrival:
        return "arrival";
      case JournalRecordType::Admit:
        return "admit";
      case JournalRecordType::Step:
        return "step";
      case JournalRecordType::Preempt:
        return "preempt";
      case JournalRecordType::Fault:
        return "fault";
      case JournalRecordType::Retire:
        return "retire";
      case JournalRecordType::CheckpointMark:
        return "checkpoint-mark";
      case JournalRecordType::RunEnd:
        return "run-end";
    }
    panic("unknown journal record type");
}

Journal
Journal::createFresh(const std::string &path, std::uint64_t fingerprint)
{
    Journal j;
    j.path_ = path;
    j.out_ = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::trunc);
    fatal_if(!*j.out_, "cannot create journal file: ", path);
    *j.out_ << headerBytes(fingerprint);
    j.out_->flush();
    fatal_if(!*j.out_, "write failed on journal file: ", path);
    return j;
}

Journal
Journal::resumeAt(const std::string &path, std::uint64_t fingerprint,
                  std::uint64_t step, bool verify_tail)
{
    const JournalContents contents = readJournal(path);
    fatal_if(contents.fingerprint != fingerprint,
             "journal ", path, " belongs to a different run: ",
             "fingerprint 0x", std::hex, contents.fingerprint,
             " vs expected 0x", fingerprint, std::dec,
             "; refusing to resume");

    // Locate the CheckpointMark covering the checkpoint we restored.
    std::size_t mark = contents.records.size();
    for (std::size_t i = 0; i < contents.records.size(); ++i) {
        const auto &rec = contents.records[i];
        if (rec.type != JournalRecordType::CheckpointMark)
            continue;
        if (decode<CheckpointMarkRecord>(rec).step == step)
            mark = i;
    }
    fatal_if(mark == contents.records.size(),
             "journal ", path, " has no checkpoint-mark for step ",
             step, "; cannot resume");

    const std::uint64_t keep = mark + 1 < contents.records.size()
        ? contents.records[mark + 1].offset
        : contents.endOffset;

    Journal j;
    j.path_ = path;
    j.verifyTail_ = verify_tail;
    for (std::size_t i = mark + 1; i < contents.records.size(); ++i)
        j.tail_.push_back(contents.records[i]);

    // Truncate the tail on disk: the resumed run re-emits it (and, with
    // verify_tail, proves it re-emits it identically).
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    fatal_if(ec, "cannot truncate journal ", path, ": ", ec.message());
    j.out_ = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::app);
    fatal_if(!*j.out_, "cannot reopen journal file: ", path);
    return j;
}

void
Journal::emit(JournalRecordType type, const ByteWriter &payload)
{
    if (!out_)
        return;
    if (!tail_.empty()) {
        const JournalRawRecord expected = tail_.front();
        tail_.pop_front();
        if (verifyTail_) {
            fatal_if(expected.type != type ||
                         expected.payload != payload.bytes(),
                     "deterministic replay divergence in journal ",
                     path_, " at offset ", expected.offset,
                     ": pre-crash run recorded ",
                     journalRecordTypeName(expected.type), " (",
                     expected.payload.size(),
                     " bytes) but the resumed run emitted ",
                     journalRecordTypeName(type), " (",
                     payload.bytes().size(), " bytes)");
        }
    }
    *out_ << frameRecord(type, payload.bytes());
    out_->flush(); // write-ahead: durable before the simulator proceeds
    fatal_if(!*out_, "write failed on journal file: ", path_);
}

template <class R>
void
Journal::emitRecord(JournalRecordType type, const R &rec)
{
    if (!out_)
        return;
    ByteWriter w;
    put(w, rec);
    emit(type, w);
}

void
Journal::emitRunBegin(std::size_t trace_size, SchedulerPolicy policy,
                      Seconds first_arrival)
{
    emitRecord(JournalRecordType::RunBegin,
               RunBeginRecord{trace_size, policy, first_arrival});
}

void
Journal::emitArrival(const TrackedRequest &r, std::size_t queue_depth)
{
    emitRecord(JournalRecordType::Arrival,
               ArrivalRecord{r.traceIndex, r.req, queue_depth});
}

void
Journal::emitAdmit(const TrackedRequest &r, Seconds clock)
{
    emitRecord(JournalRecordType::Admit,
               AdmitRecord{r.traceIndex, clock, r.effOut, r.degraded,
                           r.seq});
}

void
Journal::emitStep(std::uint8_t kind, std::uint32_t count,
                  const ExecAccumulators &acc)
{
    emitRecord(JournalRecordType::Step, StepRecord{kind, count, acc});
}

void
Journal::emitPreempt(const TrackedRequest &r, bool requeued,
                     std::size_t queue_depth,
                     std::uint64_t total_preemptions)
{
    emitRecord(JournalRecordType::Preempt,
               PreemptRecord{r.traceIndex, requeued, queue_depth,
                             total_preemptions});
}

void
Journal::emitFault(const FaultEvent &e, Seconds clock_after)
{
    emitRecord(JournalRecordType::Fault, FaultRecord{e, clock_after});
}

void
Journal::emitRetire(const ServedRequest &s)
{
    emitRecord(JournalRecordType::Retire, s);
}

void
Journal::emitCheckpointMark(std::uint64_t step)
{
    emitRecord(JournalRecordType::CheckpointMark,
               CheckpointMarkRecord{step});
}

void
Journal::emitRunEnd(const ExecAccumulators &acc,
                    std::size_t peak_queue_depth)
{
    emitRecord(JournalRecordType::RunEnd,
               RunEndRecord{acc, peak_queue_depth});
}

JournalContents
readJournal(const std::string &path)
{
    const std::string data = readWholeFile(path);
    fatal_if(data.size() < kHeaderBytes,
             "journal ", path, " truncated: ", data.size(),
             " byte(s), header needs ", kHeaderBytes);
    fatal_if(std::string_view(data.data(), 8) !=
                 std::string_view(kJournalMagic, 8),
             "journal ", path, " has a bad magic at offset 0 "
             "(not a journal file?)");

    JournalContents out;
    ByteReader header(std::string_view(data).substr(8, 12));
    out.version = header.u32();
    out.fingerprint = header.u64();
    fatal_if(out.version != kJournalVersion,
             "journal ", path, " has format version ", out.version,
             " but this build reads version ", kJournalVersion);

    std::size_t pos = kHeaderBytes;
    while (pos < data.size()) {
        fatal_if(data.size() - pos < 5,
                 "journal ", path, " truncated at offset ", pos,
                 ": record header cut short");
        ByteReader rh(std::string_view(data).substr(pos, 5));
        const std::uint8_t type = rh.u8();
        const std::uint32_t len = rh.u32();
        fatal_if(type < 1 ||
                     type > static_cast<std::uint8_t>(
                                JournalRecordType::RunEnd),
                 "journal ", path, " corrupt at offset ", pos,
                 ": unknown record type ", int(type));
        fatal_if(data.size() - pos < 5ULL + len + 8,
                 "journal ", path, " truncated at offset ", pos,
                 ": record needs ", 5ULL + len + 8,
                 " byte(s) but only ", data.size() - pos, " remain");
        const std::string_view frame(data.data() + pos, 5 + len);
        ByteReader ck(std::string_view(data).substr(pos + 5 + len, 8));
        const std::uint64_t found = ck.u64();
        const std::uint64_t expected = fnv1a(frame);
        fatal_if(found != expected,
                 "journal ", path, " corrupt at offset ", pos,
                 ": expected checksum 0x", std::hex, expected,
                 " found 0x", found, std::dec);
        JournalRawRecord rec;
        rec.type = static_cast<JournalRecordType>(type);
        rec.payload.assign(data, pos + 5, len);
        rec.offset = pos;
        out.records.push_back(std::move(rec));
        pos += 5ULL + len + 8;
    }
    out.endOffset = pos;
    return out;
}

ServingReport
replayServingReport(const std::string &path)
{
    const JournalContents contents = readJournal(path);

    std::optional<RunBeginRecord> begin;
    bool haveAcc = false;
    bool haveEnd = false;
    ExecAccumulators acc;
    std::size_t peak = 0;
    std::vector<ServedRequest> served;

    for (const auto &rec : contents.records) {
        switch (rec.type) {
          case JournalRecordType::RunBegin:
            begin = decode<RunBeginRecord>(rec);
            break;
          case JournalRecordType::Arrival:
            peak = std::max<std::size_t>(
                peak, decode<ArrivalRecord>(rec).queueDepth);
            break;
          case JournalRecordType::Step:
            // The coalesced step count is observability only.
            acc = decode<StepRecord>(rec).acc;
            haveAcc = true;
            break;
          case JournalRecordType::Preempt:
            // The running preemption total rides on Step records too.
            peak = std::max<std::size_t>(
                peak, decode<PreemptRecord>(rec).queueDepth);
            break;
          case JournalRecordType::Retire:
            served.push_back(decode<ServedRequest>(rec));
            break;
          case JournalRecordType::RunEnd: {
            const auto end = decode<RunEndRecord>(rec);
            acc = end.acc;
            peak = std::max<std::size_t>(peak, end.peakQueueDepth);
            haveAcc = true;
            haveEnd = true;
            break;
          }
          case JournalRecordType::Admit:
          case JournalRecordType::Fault:
          case JournalRecordType::CheckpointMark:
            break; // payload not needed for the report
        }
    }

    fatal_if(!begin, "journal ", path,
             " has no run-begin record; nothing to replay");
    fatal_if(!haveAcc, "journal ", path,
             " has no step or run-end record; nothing to replay");
    if (!haveEnd)
        warn("journal ", path, " has no run-end record (crashed run): "
             "replaying the prefix that was journaled");
    return buildServingReport(served, acc, begin->firstArrival,
                              begin->policy, peak);
}

void
dumpJournalText(const std::string &path, std::ostream &os)
{
    const JournalContents contents = readJournal(path);
    os << "journal " << path << " version " << contents.version
       << " fingerprint 0x" << std::hex << contents.fingerprint
       << std::dec << " (" << contents.records.size() << " records)\n";
    os << std::setprecision(17);
    for (const auto &rec : contents.records) {
        os << rec.offset << " " << journalRecordTypeName(rec.type);
        switch (rec.type) {
          case JournalRecordType::RunBegin: {
            const auto b = decode<RunBeginRecord>(rec);
            os << " trace=" << b.traceSize
               << " policy=" << schedulerPolicyName(b.policy)
               << " first-arrival=" << b.firstArrival;
            break;
          }
          case JournalRecordType::Arrival: {
            const auto a = decode<ArrivalRecord>(rec);
            os << " idx=" << a.traceIndex << " arrival=" << a.req.arrival
               << " in=" << a.req.inputTokens
               << " out=" << a.req.outputTokens
               << " prio=" << a.req.priority
               << " deadline=" << a.req.deadline
               << " depth=" << a.queueDepth;
            break;
          }
          case JournalRecordType::Admit: {
            const auto a = decode<AdmitRecord>(rec);
            os << " idx=" << a.traceIndex << " clock=" << a.clock
               << " eff-out=" << a.effOut
               << " degraded=" << int(a.degraded) << " seq=" << a.seq;
            break;
          }
          case JournalRecordType::Step: {
            const auto st = decode<StepRecord>(rec);
            os << (st.kind == 0 ? " prefill" : " decode")
               << " x" << st.count << " clock=" << st.acc.clock
               << " busy=" << st.acc.busy
               << " energy=" << st.acc.energy
               << " generated=" << st.acc.generatedTokens
               << " preemptions=" << st.acc.preemptions;
            break;
          }
          case JournalRecordType::Preempt: {
            const auto p = decode<PreemptRecord>(rec);
            os << " idx=" << p.traceIndex
               << " requeued=" << int(p.requeued)
               << " depth=" << p.queueDepth
               << " total=" << p.totalPreemptions;
            break;
          }
          case JournalRecordType::Fault: {
            const auto f = decode<FaultRecord>(rec);
            os << " kind=" << faultKindName(f.event.kind)
               << " time=" << f.event.time
               << " duration=" << f.event.duration
               << " magnitude=" << f.event.magnitude
               << " clock=" << f.clockAfter;
            break;
          }
          case JournalRecordType::Retire: {
            const auto s = decode<ServedRequest>(rec);
            os << " idx=" << s.traceIndex << " outcome="
               << requestOutcomeName(s.outcome) << " finish="
               << s.finish << " latency=" << s.latency()
               << " generated=" << s.generated << " preemptions="
               << s.preemptions << " degraded=" << int(s.degraded);
            break;
          }
          case JournalRecordType::CheckpointMark:
            os << " step=" << decode<CheckpointMarkRecord>(rec).step;
            break;
          case JournalRecordType::RunEnd: {
            const auto e = decode<RunEndRecord>(rec);
            os << " clock=" << e.acc.clock << " busy=" << e.acc.busy
               << " energy=" << e.acc.energy
               << " peak-depth=" << e.peakQueueDepth;
            break;
          }
        }
        os << "\n";
    }
}

} // namespace engine
} // namespace edgereason
