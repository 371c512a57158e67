#include "engine/request_state.hh"

#include "common/logging.hh"

namespace edgereason {
namespace engine {

const char *
requestOutcomeName(RequestOutcome o)
{
    switch (o) {
      case RequestOutcome::Completed:
        return "completed";
      case RequestOutcome::TimedOut:
        return "timed-out";
      case RequestOutcome::Shed:
        return "shed";
      case RequestOutcome::Cancelled:
        return "cancelled";
    }
    panic("unknown request outcome");
}

const char *
requestStateName(RequestState s)
{
    switch (s) {
      case RequestState::Queued:
        return "queued";
      case RequestState::Prefilling:
        return "prefilling";
      case RequestState::Decoding:
        return "decoding";
      case RequestState::Preempted:
        return "preempted";
      case RequestState::Done:
        return "done";
    }
    panic("unknown request state");
}

bool
requestTransitionAllowed(RequestState from, RequestState to)
{
    switch (from) {
      case RequestState::Queued:
        return to == RequestState::Prefilling ||
            to == RequestState::Done;
      case RequestState::Prefilling:
        return to == RequestState::Decoding ||
            to == RequestState::Preempted || to == RequestState::Done;
      case RequestState::Decoding:
        return to == RequestState::Preempted ||
            to == RequestState::Done;
      case RequestState::Preempted:
        return to == RequestState::Prefilling ||
            to == RequestState::Done;
      case RequestState::Done:
        return false; // terminal
    }
    panic("unknown request state");
}

void
serialize(ByteWriter &w, const ServerRequest &r)
{
    w.f64(r.arrival);
    w.i64(r.inputTokens);
    w.i64(r.outputTokens);
    w.i64(r.priority);
    w.f64(r.deadline);
    w.i64(r.sessionId);
    w.u64(r.prefixHashes.size());
    for (std::uint64_t h : r.prefixHashes)
        w.u64(h);
}

void
restore(ByteReader &r, ServerRequest &out)
{
    out.arrival = r.f64();
    out.inputTokens = r.i64();
    out.outputTokens = r.i64();
    out.priority = static_cast<int>(r.i64());
    out.deadline = r.f64();
    out.sessionId = r.i64();
    const std::uint64_t nHashes = r.u64();
    out.prefixHashes.resize(nHashes);
    for (auto &h : out.prefixHashes)
        h = r.u64();
}

void
serialize(ByteWriter &w, const ServedRequest &r)
{
    serialize(w, r.request);
    w.u8(static_cast<std::uint8_t>(r.outcome));
    w.f64(r.queueDelay);
    w.f64(r.serviceTime);
    w.f64(r.finish);
    w.i64(r.generated);
    w.i64(r.preemptions);
    w.u8(r.degraded ? 1 : 0);
    w.i64(r.traceIndex);
    w.i64(r.cachedPrefix);
    w.f64(r.firstToken);
}

void
restore(ByteReader &r, ServedRequest &out)
{
    restore(r, out.request);
    const std::uint8_t outcome = r.u8();
    fatal_if(
        outcome > static_cast<std::uint8_t>(RequestOutcome::Cancelled),
        "ServedRequest restore: invalid outcome ", int(outcome));
    out.outcome = static_cast<RequestOutcome>(outcome);
    out.queueDelay = r.f64();
    out.serviceTime = r.f64();
    out.finish = r.f64();
    out.generated = r.i64();
    out.preemptions = static_cast<int>(r.i64());
    out.degraded = r.u8() != 0;
    out.traceIndex = r.i64();
    out.cachedPrefix = r.i64();
    out.firstToken = r.f64();
}

void
serialize(ByteWriter &w, const TrackedRequest &r)
{
    serialize(w, r.req);
    w.u8(static_cast<std::uint8_t>(r.state));
    w.i64(r.traceIndex);
    w.f64(r.notBefore);
    w.i64(r.effOut);
    w.f64(r.prefillStart);
    w.i64(r.prefillDone);
    w.i64(r.generated);
    w.i64(r.preemptions);
    w.u8(r.degraded ? 1 : 0);
    w.u64(r.seq);
    w.i64(r.cachedPrefix);
    w.f64(r.prefillEnd);
}

void
restore(ByteReader &r, TrackedRequest &out)
{
    restore(r, out.req);
    const std::uint8_t state = r.u8();
    fatal_if(state > static_cast<std::uint8_t>(RequestState::Done),
             "TrackedRequest restore: invalid state ", int(state));
    out.state = static_cast<RequestState>(state);
    out.traceIndex = r.i64();
    out.notBefore = r.f64();
    out.effOut = r.i64();
    out.prefillStart = r.f64();
    out.prefillDone = r.i64();
    out.generated = r.i64();
    out.preemptions = static_cast<int>(r.i64());
    out.degraded = r.u8() != 0;
    out.seq = r.u64();
    out.cachedPrefix = r.i64();
    out.prefillEnd = r.f64();
}

} // namespace engine
} // namespace edgereason
