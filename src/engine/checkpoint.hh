/**
 * @file
 * Checkpoint files for the serving simulator (DESIGN.md §9).  A
 * checkpoint snapshots the complete run state at a batch-step boundary
 * — scheduling state, executor accumulators, thermal state, KV cache,
 * served records, arrival cursor, and any registered RNG streams — so
 * a killed process can resume and finish bit-identically.
 *
 * On-disk format (common/binio.hh encoding):
 *
 *   "EDGECKPT" | u32 version | u64 run fingerprint | u64 payload
 *   length | payload | u64 FNV-1a checksum over everything before it
 *
 * Checkpoints are written to a temp file and renamed into place, so a
 * crash mid-write can never leave a torn file under the final name;
 * loading validates magic, version, fingerprint, length, and checksum
 * before a single byte of payload is interpreted — a corrupt file is a
 * fatal(), never a partial restore.
 *
 * The run fingerprint hashes everything that determines the run's
 * arithmetic: engine identity, server config, the full trace, and the
 * fault plan's behavioural content.  The crash schedule is deliberately
 * excluded — resuming under a different (or no) crash schedule is the
 * normal recovery flow and must not be rejected.
 */

#ifndef EDGEREASON_ENGINE_CHECKPOINT_HH
#define EDGEREASON_ENGINE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "engine/server.hh"

namespace edgereason {
namespace engine {

/**
 * Checkpoint format version (bump on any layout change).
 * v2: ExecAccumulators gained decodeSteps/macroSegments and the run
 * fingerprint covers the stepping mode (exactSteps/macroHorizonCap).
 * v3: prefix-cache support — requests carry sessionId/prefixHashes,
 * accumulators carry prefix accounting, KvCache serializes its prefix
 * index, and the fingerprint covers the prefix-cache config.
 */
inline constexpr std::uint32_t kCheckpointVersion = 3;

/** @return the canonical checkpoint path: <dir>/ckpt-<step>.bin. */
std::string checkpointPath(const std::string &dir, std::uint64_t step);

/** Atomically write a checkpoint file (temp file + rename). */
void writeCheckpointFile(const std::string &path,
                         std::uint64_t fingerprint,
                         const ByteWriter &payload);

/**
 * Load and fully validate a checkpoint file.  fatal() with the byte
 * offset and expected/found values on a bad magic, unsupported
 * version, fingerprint mismatch, truncation, or checksum failure.
 *
 * @return the verified payload bytes.
 */
std::string loadCheckpointFile(const std::string &path,
                               std::uint64_t expected_fingerprint);

/**
 * Enumerate ckpt-<step>.bin files in @p dir, sorted by ascending step.
 * Files that merely look like checkpoints but have unparsable step
 * numbers are ignored.
 */
std::vector<std::pair<std::uint64_t, std::string>>
listCheckpoints(const std::string &dir);

/**
 * Write every ServerConfig field that shapes serving arithmetic —
 * limits, scheduler and its SPJF model, degrade policy, stepping mode,
 * prefix cache — into a fingerprint under construction.  The
 * single-node and fleet fingerprints both hash their server knobs
 * through it.
 */
void fingerprintServerConfig(ByteWriter &w, const ServerConfig &config);

/**
 * Write a fault plan's behavioural content — thermal model and the
 * materialized event list — into a fingerprint under construction.
 * The crash schedule is left out: it decides when the process dies,
 * never what the run computes, and a resume legitimately runs without
 * one.
 */
void fingerprintFaultPlan(ByteWriter &w, const FaultPlan &faults);

/**
 * Hash everything that determines a serving run's arithmetic (engine
 * identity, config, trace, behavioural fault schedule).  Stored in
 * journal and checkpoint headers; a resume under a different
 * fingerprint is refused outright.
 */
std::uint64_t runFingerprint(const InferenceEngine &engine,
                             const ServerConfig &config,
                             const std::vector<ServerRequest> &trace,
                             const FaultPlan &faults);

} // namespace engine
} // namespace edgereason

#endif // EDGEREASON_ENGINE_CHECKPOINT_HH
