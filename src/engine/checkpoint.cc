#include "engine/checkpoint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ios>
#include <sstream>

#include "common/logging.hh"
#include "engine/request_state.hh"

namespace edgereason {
namespace engine {

namespace {

constexpr char kCheckpointMagic[8] = {'E', 'D', 'G', 'E',
                                      'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

} // namespace

std::string
checkpointPath(const std::string &dir, std::uint64_t step)
{
    return (std::filesystem::path(dir) /
            ("ckpt-" + std::to_string(step) + ".bin"))
        .string();
}

void
writeCheckpointFile(const std::string &path, std::uint64_t fingerprint,
                    const ByteWriter &payload)
{
    ByteWriter file;
    for (char c : kCheckpointMagic)
        file.u8(static_cast<std::uint8_t>(c));
    file.u32(kCheckpointVersion);
    file.u64(fingerprint);
    file.u64(payload.bytes().size());
    std::string bytes = file.bytes() + payload.bytes();
    ByteWriter ck;
    ck.u64(fnv1a(bytes));
    bytes += ck.bytes();

    // Temp-file + rename: a crash mid-write can never leave a torn
    // file under the final name.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        fatal_if(!out, "cannot create checkpoint file: ", tmp);
        out << bytes;
        out.flush();
        fatal_if(!out, "write failed on checkpoint file: ", tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    fatal_if(ec, "cannot move checkpoint into place at ", path, ": ",
             ec.message());
}

std::string
loadCheckpointFile(const std::string &path,
                   std::uint64_t expected_fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open checkpoint file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();

    fatal_if(data.size() < kHeaderBytes + 8,
             "checkpoint ", path, " truncated: ", data.size(),
             " byte(s), need at least ", kHeaderBytes + 8);
    fatal_if(std::string_view(data.data(), 8) !=
                 std::string_view(kCheckpointMagic, 8),
             "checkpoint ", path,
             " has a bad magic at offset 0 (not a checkpoint file?)");

    ByteReader header(std::string_view(data).substr(8, 20));
    const std::uint32_t version = header.u32();
    fatal_if(version != kCheckpointVersion,
             "checkpoint ", path, " has format version ", version,
             " but this build reads version ", kCheckpointVersion);
    const std::uint64_t fingerprint = header.u64();
    fatal_if(fingerprint != expected_fingerprint,
             "checkpoint ", path,
             " belongs to a different run: fingerprint 0x", std::hex,
             fingerprint, " vs expected 0x", expected_fingerprint,
             std::dec, "; refusing to restore");
    const std::uint64_t len = header.u64();
    fatal_if(data.size() != kHeaderBytes + len + 8,
             "checkpoint ", path, " truncated at offset ",
             data.size(), ": payload declares ", len,
             " byte(s), file needs ", kHeaderBytes + len + 8);

    ByteReader ck(
        std::string_view(data).substr(kHeaderBytes + len, 8));
    const std::uint64_t found = ck.u64();
    const std::uint64_t expected = fnv1a(
        std::string_view(data.data(), kHeaderBytes + len));
    fatal_if(found != expected,
             "checkpoint ", path, " corrupt at offset ",
             kHeaderBytes + len, ": expected checksum 0x", std::hex,
             expected, " found 0x", found, std::dec);

    return data.substr(kHeaderBytes, len);
}

std::vector<std::pair<std::uint64_t, std::string>>
listCheckpoints(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= 9 || name.compare(0, 5, "ckpt-") != 0 ||
            name.compare(name.size() - 4, 4, ".bin") != 0)
            continue;
        const std::string digits = name.substr(5, name.size() - 9);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        out.emplace_back(std::stoull(digits), entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
fingerprintServerConfig(ByteWriter &w, const ServerConfig &config)
{
    w.i64(config.maxBatch);
    w.f64(config.kvWatermark);
    w.i64(config.prefillChunk);
    w.u8(static_cast<std::uint8_t>(config.scheduler));
    w.f64(config.spjfModel.prefill.a);
    w.f64(config.spjfModel.prefill.b);
    w.f64(config.spjfModel.prefill.c);
    w.i64(config.spjfModel.prefill.tile);
    w.f64(config.spjfModel.decode.m);
    w.f64(config.spjfModel.decode.n);
    w.u8(static_cast<std::uint8_t>(config.degrade.mode));
    w.u8(static_cast<std::uint8_t>(config.degrade.budget.kind));
    w.i64(config.degrade.budget.budget);
    w.i64(config.degrade.maxRetries);
    w.f64(config.degrade.retryBackoff);
    // Stepping mode: exact vs macro journals segment differently, so
    // a resumed run must re-execute in the mode that wrote the tail
    // for byte-for-byte tail verification to hold.
    w.u8(config.exactSteps ? 1 : 0);
    w.u64(config.macroHorizonCap);
    // Prefix-cache mode changes admission arithmetic and the KvCache
    // wire payload, so a resume must match the writer's mode exactly.
    w.u8(config.prefixCache.enabled ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(config.prefixCache.evict));
}

void
fingerprintFaultPlan(ByteWriter &w, const FaultPlan &faults)
{
    const FaultConfig &fc = faults.config();
    w.u8(fc.thermal ? 1 : 0);
    w.f64(fc.thermalSpec.ambientC);
    w.f64(fc.thermalSpec.rThermal);
    w.f64(fc.thermalSpec.cThermal);
    w.f64(fc.thermalSpec.throttleC);
    w.f64(fc.thermalSpec.recoverC);
    w.f64(fc.thermalSpec.initialC);
    w.u64(faults.events().size());
    for (const auto &e : faults.events()) {
        w.u8(static_cast<std::uint8_t>(e.kind));
        w.f64(e.time);
        w.f64(e.duration);
        w.f64(e.magnitude);
    }
}

std::uint64_t
runFingerprint(const InferenceEngine &engine,
               const ServerConfig &config,
               const std::vector<ServerRequest> &trace,
               const FaultPlan &faults)
{
    ByteWriter w;
    // Engine identity: name plus the quantities serving arithmetic
    // actually reads (KV geometry, budget, idle power).
    w.str(engine.spec().name);
    w.f64(engine.spec().kvBytesPerToken());
    w.i64(engine.kvBudget());
    w.f64(engine.calib().power.idle);

    fingerprintServerConfig(w, config);

    w.u64(trace.size());
    for (const auto &r : trace)
        put(w, r);

    fingerprintFaultPlan(w, faults);

    return fnv1a(w.bytes());
}

} // namespace engine
} // namespace edgereason
