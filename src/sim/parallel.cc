#include "sim/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "util/log.h"
#include "util/parse.h"

namespace fdip
{

unsigned
jobsFromEnv(unsigned fallback)
{
    if (fallback == 0)
        fallback = std::max(1u, std::thread::hardware_concurrency());
    // Coordinating-thread opt-in, read before any worker exists
    // (check_determinism.py allowlists this file for getenv).
    const char *v = std::getenv("FDIP_JOBS"); // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr || *v == '\0')
        return fallback;
    const auto n = parseDecimal(v);
    if (!n || *n == 0 || *n > kMaxJobs) {
        fdip_warn("FDIP_JOBS='%s' is not a valid worker count "
                  "(want 1..%u); using %u",
                  v, kMaxJobs, fallback);
        return fallback;
    }
    return static_cast<unsigned>(*n);
}

std::size_t
Campaign::add(std::string label, CoreConfig cfg,
              PrefetcherFactory make_prefetcher,
              std::string prefetcher_id)
{
    return add(CampaignEntry{std::move(label), std::move(cfg),
                             std::move(make_prefetcher),
                             std::move(prefetcher_id)});
}

std::size_t
Campaign::add(CampaignEntry entry)
{
    entries_.push_back(std::move(entry));
    return entries_.size() - 1;
}

} // namespace fdip
