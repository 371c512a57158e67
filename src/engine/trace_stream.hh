/**
 * @file
 * Streaming request-trace sources (DESIGN.md §15).  A 10⁶-request
 * fleet trace materialized as std::vector<ServerRequest> costs
 * hundreds of MB before the first event is processed; a TraceSource
 * hands the fleet driver one request at a time, so a run of any
 * length holds O(1) trace state.
 *
 * PoissonTraceStream draws the exact sequence
 * ServingSimulator::poissonTrace draws — same Rng, same call order —
 * so for equal parameters the first n streamed requests are
 * bit-identical to the materialized trace (poissonTrace is itself
 * implemented on top of this stream).  Like the "shard/<i>" streams
 * of `serve --replications`, a stream can own a named Rng stream
 * (seeded by name, not draw order), so trace identity is a pure
 * function of (seed, name, parameters).
 */

#ifndef EDGEREASON_ENGINE_TRACE_STREAM_HH
#define EDGEREASON_ENGINE_TRACE_STREAM_HH

#include <cstddef>
#include <string_view>

#include "common/rng.hh"
#include "engine/request_state.hh"

namespace edgereason {
namespace engine {

/** Incremental request source: the streaming analogue of a sorted
 *  trace vector.  Arrival times must be non-decreasing across next()
 *  calls (the fleet driver enforces it). */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Total number of requests this source will yield. */
    virtual std::size_t totalRequests() const = 0;
    /** Draw the next request; panics past totalRequests(). */
    virtual ServerRequest next() = 0;
};

/** Poisson arrivals with log-normal input/output lengths, one request
 *  per next() call; draw-for-draw identical to poissonTrace. */
class PoissonTraceStream final : public TraceSource
{
  public:
    /** Borrow @p rng (must outlive the stream). */
    PoissonTraceStream(Rng &rng, std::size_t n, double qps,
                       double mean_in, double mean_out,
                       double cv = 0.45);

    /** Own a named Rng stream: Rng(seed, name). */
    PoissonTraceStream(std::uint64_t seed, std::string_view name,
                       std::size_t n, double qps, double mean_in,
                       double mean_out, double cv = 0.45);

    /** Stamp every subsequent request with this relative deadline
     *  (<= 0 leaves deadlines unset). */
    void setDeadline(double deadline) { deadline_ = deadline; }

    std::size_t totalRequests() const override { return n_; }
    std::size_t drawn() const { return drawn_; }
    ServerRequest next() override;

  private:
    Rng own_;
    Rng *rng_;
    std::size_t n_;
    double qps_, meanIn_, meanOut_, cv_;
    double deadline_ = 0.0;
    Seconds t_ = 0.0;
    std::size_t drawn_ = 0;
};

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_TRACE_STREAM_HH
