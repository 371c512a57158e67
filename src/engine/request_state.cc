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

} // namespace engine
} // namespace edgereason
