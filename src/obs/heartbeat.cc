#include "obs/heartbeat.h"

#include <cstdio>
#include <cstdlib>

#include "util/log.h"
#include "util/parse.h"

namespace fdip
{

namespace
{

double
perKi(std::uint64_t events, std::uint64_t instrs)
{
    return instrs == 0 ? 0.0
                       : 1000.0 * static_cast<double>(events) /
                             static_cast<double>(instrs);
}

} // namespace

double
HeartbeatSample::ipc() const
{
    return dCycles == 0 ? 0.0
                        : static_cast<double>(dInstrs) /
                              static_cast<double>(dCycles);
}

double
HeartbeatSample::branchMpki() const
{
    return perKi(mispredicts, dInstrs);
}

double
HeartbeatSample::starvationPerKi() const
{
    return perKi(starvationCycles, dInstrs);
}

double
HeartbeatSample::l1iMpki() const
{
    return perKi(l1iDemandMisses, dInstrs);
}

void
appendHeartbeatJson(std::string &out, const HeartbeatSample &s)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"instrs\": %llu, \"cycles\": %llu, \"dInstrs\": %llu, "
        "\"dCycles\": %llu, \"ipc\": %.6f, \"mpki\": %.4f, "
        "\"starvationPerKi\": %.3f, \"l1iMpki\": %.4f, "
        "\"pfcFires\": %llu, \"prefetchesIssued\": %llu, "
        "\"prefetchesUseful\": %llu}",
        static_cast<unsigned long long>(s.instrs),
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.dInstrs),
        static_cast<unsigned long long>(s.dCycles), s.ipc(),
        s.branchMpki(), s.starvationPerKi(), s.l1iMpki(),
        static_cast<unsigned long long>(s.pfcFires),
        static_cast<unsigned long long>(s.prefetchesIssued),
        static_cast<unsigned long long>(s.prefetchesUseful));
    out += buf;
    // The stall-attribution deltas ride every sample as a nested
    // object keyed by bucket leaf name (schema shared with the
    // report/CSV columns).
    out.back() = ',';
    out += " \"cycleBuckets\": {";
    for (std::size_t i = 0; i < kCycleBucketCount; ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                      i == 0 ? "" : ", ", kCycleBucketName[i],
                      static_cast<unsigned long long>(s.cycleBuckets[i]));
        out += buf;
    }
    out += "}}";
}

std::uint64_t
heartbeatIntervalFromEnv()
{
    // Coordinating-thread opt-in, resolved before workers fork.
    const char *v = // NOLINT(concurrency-mt-unsafe)
        std::getenv("FDIP_HEARTBEAT");
    if (v == nullptr || *v == '\0')
        return 0;
    const auto n = parseDecimal(v);
    if (!n || *n == 0) {
        fdip_warn("FDIP_HEARTBEAT='%s' is not a positive instruction "
                  "count; heartbeat disabled",
                  v);
        return 0;
    }
    return *n;
}

} // namespace fdip
