/**
 * @file
 * The single-node body of the CLI `serve` subcommand as library calls,
 * so a plain run and each of `--replications R` run the same code.
 */

#ifndef EDGEREASON_CLI_SERVE_RUN_HH
#define EDGEREASON_CLI_SERVE_RUN_HH

#include <string_view>
#include <vector>

#include "cli/serve_options.hh"
#include "common/rng.hh"
#include "engine/server.hh"

namespace edgereason {
namespace cli {

/** The sessions or Poisson trace @p o asks for, drawn from @p rng,
 *  every request carrying the --deadline. */
std::vector<engine::ServerRequest> serveTrace(const ServeOptions &o,
                                              Rng &rng);

/** The --faults environment, also the fleet's --node-faults one: a
 *  passively cooled enclosure at --ambient, with brownouts and
 *  KV-shrink windows at their flag rates. */
engine::FaultConfig behaviouralFaults(const ServeOptions &o);

/** One run of serveTrace() on Rng(o.seed, @p stream), with @p o's fault
 *  plan and durability, and @p fallback (or null) as the --degrade
 *  fallback engine; a plain `serve` is the "cli-serve" stream.  Throws
 *  engine::SimulatedCrash when an injected crash fires. */
engine::ServingReport serveNode(const ServeOptions &o,
                                engine::InferenceEngine &engine,
                                engine::InferenceEngine *fallback,
                                const engine::ServerConfig &config,
                                std::string_view stream);

/** o.replications runs on the global pool, replication i being
 *  serveNode(..., "shard/<i>").  They share only the engines' memo
 *  caches, so the reports (in replication order) are identical at any
 *  thread count. */
std::vector<engine::ServingReport>
serveReplications(const ServeOptions &o, engine::InferenceEngine &engine,
                  engine::InferenceEngine *fallback,
                  const engine::ServerConfig &config);

} // namespace cli
} // namespace edgereason

#endif // EDGEREASON_CLI_SERVE_RUN_HH
