#include "accuracy/trace_gen.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <string_view>

#include "common/logging.hh"
#include "engine/tokenizer.hh"

namespace edgereason {
namespace acc {

std::string
ResponseTrace::fullText() const
{
    return "<think>\n" + thinking + "\n</think>\n" + answer;
}

namespace {

const std::array<const char *, 10> openers = {
    "Okay, let me work through this carefully.",
    "Let me start by restating what is being asked.",
    "First, I need to identify the key constraints here.",
    "Hmm, this requires a couple of steps.",
    "Let me break the problem into parts.",
    "To answer this, I should consider each option in turn.",
    "The question hinges on one central fact.",
    "I'll reason step by step before committing to an answer.",
    "There are a few plausible interpretations; let me compare them.",
    "Let me recall the relevant background first.",
};

const std::array<const char *, 12> middles = {
    "If that premise holds, the next step follows directly.",
    "Wait, I should double-check that assumption before moving on.",
    "Comparing the alternatives, one of them is clearly stronger.",
    "That rules out two of the options immediately.",
    "On reflection, the earlier estimate was slightly off.",
    "This is consistent with what the constraints imply.",
    "Another way to see it is to work backwards from the result.",
    "Taking the edge cases into account does not change the outcome.",
    "The intermediate result simplifies nicely.",
    "Actually, there is a subtlety here worth a second look.",
    "Putting these pieces together narrows things down.",
    "A quick sanity check confirms the direction.",
};

const std::array<const char *, 4> closers = {
    "So, putting it all together, the conclusion is clear.",
    "Therefore the reasoning converges on a single choice.",
    "All the evidence points the same way.",
    "That settles it.",
};

} // namespace

ResponseTrace
generateTrace(const std::string &question,
              const strategy::TokenPolicy &policy, Tokens target_tokens,
              Rng &rng)
{
    fatal_if(target_tokens < 4, "trace needs >= 4 tokens");
    const engine::Tokenizer tok;
    ResponseTrace trace;

    trace.answer = "The answer is (" +
        std::string(1, static_cast<char>('A' + rng.uniformInt(0, 3))) +
        ").";

    if (policy.kind == strategy::PolicyKind::NoReasoning) {
        // The paper's NR injection: a predefined empty thinking block.
        trace.thinking = "Okay, I think I have finished thinking.";
    } else {
        // Weave sentences until the budget is nearly exhausted.
        std::string think = "The question: " + question + "\n";
        think += openers[static_cast<std::size_t>(
            rng.uniformInt(0, openers.size() - 1))];
        const Tokens reserve = 24; // answer + delimiters
        while (static_cast<Tokens>(tok.countTokens(think)) + reserve <
               target_tokens) {
            think += " ";
            think += middles[static_cast<std::size_t>(
                rng.uniformInt(0, middles.size() - 1))];
        }
        think += " ";
        think += closers[static_cast<std::size_t>(
            rng.uniformInt(0, closers.size() - 1))];
        trace.thinking = std::move(think);
    }

    trace.tokens = static_cast<Tokens>(
        tok.countTokens(trace.fullText()));
    return trace;
}

namespace {

/** One block's chain hash: mixes the previous block's chain hash with
 *  every token symbol in the block, so equal hashes imply equal full
 *  prefixes (FNV-1a over the 8-byte symbols, seeded by the chain). */
std::uint64_t
chainBlockHash(std::uint64_t prev, const std::uint64_t *tokens,
               Tokens count)
{
    std::uint64_t h = prev ^ 0xcbf29ce484222325ULL;
    for (Tokens i = 0; i < count; ++i) {
        std::uint64_t t = tokens[i];
        for (int b = 0; b < 8; ++b) {
            h ^= (t >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** Token symbol hashString(<name> + std::to_string(i)), given the
 *  hash @p name_state of the fixed name prefix. */
std::uint64_t
symbol(std::uint64_t name_state, std::size_t i)
{
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof digits, i).ptr;
    return Rng::hashString(
        std::string_view(digits, static_cast<std::size_t>(end - digits)),
        name_state);
}

/** Append the @p n token symbols <name>0 .. <name>(n-1) to @p context.
 *  Each run of ten indices shares the hash of its leading digits, so a
 *  symbol costs one more byte of FNV-1a. */
void
appendSymbols(std::vector<std::uint64_t> &context,
              std::uint64_t name_state, Tokens n)
{
    static constexpr std::string_view digits = "0123456789";
    for (Tokens tens = 0; 10 * tens < n; ++tens) {
        const std::uint64_t lead = tens == 0
            ? name_state
            : symbol(name_state, static_cast<std::size_t>(tens));
        for (Tokens d = 0; d < 10 && 10 * tens + d < n; ++d)
            context.push_back(Rng::hashString(
                digits.substr(static_cast<std::size_t>(d), 1), lead));
    }
}

/** Chain hashes of the full blocks of a growing context, carried from
 *  turn to turn so each block is hashed exactly once. */
struct BlockChain
{
    std::vector<std::uint64_t> hashes;
    std::uint64_t prev = 0x5edfe5a1u; // chain seed for block 0

    /** Hash every block of @p context that became full since the last
     *  call. */
    void
    extend(const std::vector<std::uint64_t> &context, Tokens block)
    {
        const auto b = static_cast<std::size_t>(block);
        for (std::size_t i = hashes.size(); (i + 1) * b <= context.size();
             ++i) {
            prev = chainBlockHash(prev, context.data() + i * b, block);
            hashes.push_back(prev);
        }
    }
};

Tokens
drawTokens(Rng &rng, double mean, double cv, Tokens floor)
{
    return std::max<Tokens>(floor, static_cast<Tokens>(std::llround(
        rng.logNormalMeanStd(mean, cv * mean))));
}

} // namespace

std::vector<engine::ServerRequest>
generateSessionTrace(const SessionTraceConfig &cfg, Rng &rng)
{
    fatal_if(cfg.sessions == 0, "session trace needs >= 1 session");
    fatal_if(cfg.turnsPerSession == 0,
             "session trace needs >= 1 turn per session");
    fatal_if(cfg.sessionQps <= 0.0, "session qps must be positive");
    fatal_if(cfg.meanTurnGap <= 0.0, "turn gap must be positive");
    fatal_if(cfg.blockTokens <= 0, "block tokens must be positive");

    // The system prompt is symbol-identical across every session —
    // that is what makes its blocks shareable in the radix index.
    // Token symbols are Rng::hashString of stable names (DESIGN §13),
    // computed here by continuing the hash of each name's prefix.
    std::vector<std::uint64_t> system;
    system.reserve(static_cast<std::size_t>(cfg.systemPromptTokens));
    appendSymbols(system, Rng::hashString("system-token/"),
                  cfg.systemPromptTokens);
    BlockChain system_chain;
    system_chain.extend(system, cfg.blockTokens);

    std::vector<engine::ServerRequest> trace;
    trace.reserve(cfg.sessions * cfg.turnsPerSession);
    const std::uint64_t session_name = Rng::hashString("session/");
    std::vector<std::uint64_t> context;
    Seconds session_start = 0.0;
    for (std::size_t s = 0; s < cfg.sessions; ++s) {
        session_start +=
            -std::log(1.0 - rng.uniform()) / cfg.sessionQps;
        const std::uint64_t sprefix =
            Rng::hashString("/turn/", symbol(session_name, s));
        context.assign(system.begin(), system.end());
        BlockChain chain = system_chain;
        Seconds arrival = session_start;
        for (std::size_t t = 0; t < cfg.turnsPerSession; ++t) {
            const std::uint64_t tprefix = symbol(sprefix, t);
            const Tokens user =
                drawTokens(rng, cfg.meanUserTokens, cfg.cv, 4);
            appendSymbols(context, Rng::hashString("/user/", tprefix), user);
            chain.extend(context, cfg.blockTokens);

            const Tokens think =
                drawTokens(rng, cfg.meanThinkTokens, cfg.cv, 4);
            const Tokens answer =
                drawTokens(rng, cfg.meanAnswerTokens, cfg.cv, 4);

            engine::ServerRequest r;
            r.arrival = arrival;
            r.inputTokens = static_cast<Tokens>(context.size());
            r.outputTokens = think + answer;
            r.sessionId = static_cast<std::int64_t>(s);
            r.prefixHashes = chain.hashes;
            trace.push_back(std::move(r));

            // Fold the turn's output back into the context so the
            // next turn's prompt extends this one's full transcript.
            const Tokens carried =
                (cfg.carryThink ? think : 0) + answer;
            appendSymbols(context, Rng::hashString("/out/", tprefix),
                          carried);

            arrival += -std::log(1.0 - rng.uniform()) *
                cfg.meanTurnGap;
        }
    }

    std::stable_sort(trace.begin(), trace.end(),
                     [](const engine::ServerRequest &a,
                        const engine::ServerRequest &b) {
                         return a.arrival < b.arrival;
                     });
    return trace;
}

} // namespace acc
} // namespace edgereason
