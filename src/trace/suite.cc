#include "trace/suite.h"

#include <cstdlib>
#include <cstring>

#include "util/log.h"
#include "util/parse.h"

namespace fdip
{

std::vector<SuiteEntry>
buildStandardSuite(std::size_t insts_per_trace, bool small)
{
    std::vector<WorkloadSpec> specs;
    specs.push_back(serverSpec("srv-a", 101));
    specs.push_back(clientSpec("clt-a", 201));
    specs.push_back(specCpuSpec("spec-a", 301));
    if (!small) {
        specs.push_back(serverSpec("srv-b", 102));
        specs.push_back(serverSpec("srv-c", 103));
        specs.push_back(clientSpec("clt-b", 202));
        specs.push_back(clientSpec("clt-c", 203));
        specs.push_back(specCpuSpec("spec-b", 302));
        specs.push_back(specCpuSpec("spec-c", 303));
    }

    std::vector<SuiteEntry> suite;
    suite.reserve(specs.size());
    for (const auto &spec : specs) {
        auto wl = std::make_shared<Workload>(buildWorkload(spec));
        SuiteEntry e;
        e.name = spec.name;
        e.trace = generateTrace(wl, insts_per_trace);
        suite.push_back(std::move(e));
    }
    return suite;
}

std::size_t
suiteInstsFromEnv(std::size_t default_insts)
{
    // Coordinating-thread opt-in, read while building the suite.
    const char *v = // NOLINT(concurrency-mt-unsafe)
        std::getenv("FDIP_SIM_INSTRS");
    if (v == nullptr || *v == '\0')
        return default_insts;
    const auto n = parseDecimal(v);
    if (!n || *n <= 1000) {
        fdip_warn("FDIP_SIM_INSTRS='%s' is not a valid instruction count "
                  "(want a plain integer > 1000); using %zu",
                  v, default_insts);
        return default_insts;
    }
    return static_cast<std::size_t>(*n);
}

bool
suiteSmallFromEnv()
{
    // Coordinating-thread opt-in, read while building the suite.
    const char *v = // NOLINT(concurrency-mt-unsafe)
        std::getenv("FDIP_SUITE");
    if (v == nullptr || *v == '\0')
        return false;
    if (std::strcmp(v, "small") == 0)
        return true;
    if (std::strcmp(v, "full") != 0)
        fdip_warn("FDIP_SUITE='%s' is not 'small' or 'full'; using full", v);
    return false;
}

} // namespace fdip
