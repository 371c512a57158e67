#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hh"
#include "common/binio.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string
hexDigest(const std::string &s)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(edgereason::fnv1a(s)));
    return buf;
}

void
Rep::check(bool ok, const std::string &what)
{
    ++calls;
    if (!ok) {
        ++failedCalls;
        failures.push_back(what);
    }
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int
Tracer::open(const std::string &name)
{
    if (!enabled_)
        return -1;
    Record r;
    r.name = name;
    r.workload = workload_;
    r.parent = open_.empty() ? -1 : open_.back();
    r.startUs = 1e6 * secondsSince(origin_);
    spans_.push_back(std::move(r));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endUs = 1e6 * secondsSince(origin_);
    // Spans are RAII-scoped, so they close innermost first.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &meta_json) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << meta_json
       << ",\"traceEvents\":[\n";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        std::string parent = "null";
        if (r.parent >= 0) {
            parent = '"';
            parent += jsonEscape(
                spans_[static_cast<std::size_t>(r.parent)].name);
            parent += '"';
        }
        os << (i ? ",\n" : "") << "{\"ph\":\"X\",\"pid\":1,\"tid\":1";
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                      r.startUs, r.endUs - r.startUs);
        os << buf << ",\"name\":\"" << jsonEscape(r.name)
           << "\",\"cat\":\"" << jsonEscape(r.workload)
           << "\",\"args\":{\"id\":" << i << ",\"parent\":" << parent
           << ",\"workload\":\"" << jsonEscape(r.workload) << "\"}}";
    }
    os << "\n]}\n";
    os.flush();
    return static_cast<bool>(os);
}

std::vector<std::pair<std::string, double>>
Tracer::layerSelfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endUs - spans_[i].startUs;
    for (const Record &r : spans_) {
        if (r.parent >= 0)
            self[static_cast<std::size_t>(r.parent)] -= r.endUs - r.startUs;
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string &n = spans_[i].name;
        by_layer[n.substr(0, n.find('.'))] += 1e-6 * self[i];
    }
    return {by_layer.begin(), by_layer.end()};
}

} // namespace perfbench
