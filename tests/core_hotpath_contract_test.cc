/** @file Compile-time pins for the hot-path contract.
 *
 *  Two properties of the tick-path surface are load-bearing for
 *  steady-state throughput and are cheap to lose in a refactor:
 *
 *   1. Devirtualization: every concrete prefetcher is `final`, so the
 *      compiler may devirtualize the per-tick dispatch through
 *      InstPrefetcher once the concrete type is visible.
 *   2. The exception contract: hot functions are noexcept exactly when
 *      invariant checks are compiled out (FDIP_HOT_NOEXCEPT). With
 *      checks on, FDIP_CHECK throws InvariantViolation for tests to
 *      catch; with checks off (-DFDIP_CHECKS=OFF, the perf build) the
 *      same functions promise not to throw, which lets the compiler
 *      drop unwind paths from the tick loop.
 *
 *  static_asserts fail the BUILD, not a test run, so these cannot rot
 *  silently in a lab that only reads green checkmarks. The asserts
 *  are written against !kInvariantChecksEnabled so the same TU pins
 *  the contract under both build flavors.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/backend.h"
#include "core/core.h"
#include "core/frontend.h"
#include "core/ftq.h"
#include "prefetch/djolt.h"
#include "prefetch/eip.h"
#include "prefetch/fnl_mma.h"
#include "prefetch/next_line.h"
#include "prefetch/prefetcher.h"
#include "prefetch/rdip.h"
#include "prefetch/sn4l_dis.h"
#include "util/hotpath.h"

namespace fdip
{
namespace
{

// ---- 1. Devirtualization: concrete prefetchers are final. ----------

static_assert(std::is_final_v<NullPrefetcher>);
static_assert(std::is_final_v<NextLinePrefetcher>);
static_assert(std::is_final_v<DjoltPrefetcher>);
static_assert(std::is_final_v<EipPrefetcher>);
static_assert(std::is_final_v<FnlMmaPrefetcher>);
static_assert(std::is_final_v<RdipPrefetcher>);
static_assert(std::is_final_v<Sn4lDisPrefetcher>);

// The base stays polymorphic with a virtual destructor (factory
// ownership is through unique_ptr<InstPrefetcher>).
static_assert(std::has_virtual_destructor_v<InstPrefetcher>);
static_assert(!std::is_final_v<InstPrefetcher>);

// ---- 2. The exception contract. ------------------------------------

/** True exactly when hot functions promise noexcept (perf build). */
constexpr bool kHotNoexcept = !kInvariantChecksEnabled;

/** An lvalue of T for unevaluated contexts. Declared (never defined)
 *  and marked noexcept so the helper call cannot poison the
 *  noexcept() query it appears in. */
template <typename T> T &lv() noexcept;

// The queue side of the prefetcher API is unconditionally noexcept:
// it is a fixed ring with no checks in it at all.
static_assert(noexcept(lv<InstPrefetcher>().popPrefetch()));
static_assert(noexcept(
    std::as_const(lv<InstPrefetcher>()).pendingPrefetches()));

// Ftq: the FTQ surface the frontend touches every cycle.
static_assert(noexcept(lv<Ftq>().popHead()) == kHotNoexcept);
static_assert(noexcept(lv<Ftq>().at(0)) == kHotNoexcept);
static_assert(noexcept(lv<Ftq>().head()) == kHotNoexcept);
static_assert(noexcept(lv<Ftq>().truncateAfter(0)) == kHotNoexcept);
static_assert(noexcept(lv<Ftq>().push(std::declval<FtqEntry &&>())) ==
              kHotNoexcept);

// Cache: every per-cycle tag-array operation.
static_assert(noexcept(lv<Cache>().probe(0)) == kHotNoexcept);
static_assert(noexcept(lv<Cache>().access(0)) == kHotNoexcept);
static_assert(noexcept(lv<Cache>().fill(0, nullptr)) == kHotNoexcept);
static_assert(noexcept(std::as_const(lv<Cache>()).contains(0)) ==
              kHotNoexcept);
static_assert(noexcept(lv<Cache>().invalidate(0)) == kHotNoexcept);
static_assert(noexcept(std::as_const(lv<Cache>()).lineOf(0)) ==
              kHotNoexcept);

// Memory hierarchy: the below-L1 walk.
static_assert(noexcept(lv<MemoryHierarchy>().fetchInstLine(0, 0)) ==
              kHotNoexcept);
static_assert(noexcept(lv<MemoryHierarchy>().dataAccess(0, 0, false)) ==
              kHotNoexcept);

// Core tick surface.
static_assert(noexcept(lv<Frontend>().tick(0)) == kHotNoexcept);
static_assert(noexcept(lv<Backend>().tick(0)) == kHotNoexcept);
static_assert(noexcept(std::as_const(lv<Backend>()).decodeQueueSpace())
              == kHotNoexcept);
static_assert(noexcept(lv<Backend>().flushYoungerThan(0)) ==
              kHotNoexcept);

// Prefetcher virtual surface: the base declares the contract; every
// override inherits the obligation (the compiler rejects a
// less-noexcept override, which is the point).
static_assert(noexcept(lv<InstPrefetcher>().onBranch(
                  0, InstClass::kAlu, 0, false)) == kHotNoexcept);
static_assert(noexcept(lv<InstPrefetcher>().onDemandLookup(
                  0, false, 0)) == kHotNoexcept);
static_assert(noexcept(lv<InstPrefetcher>().onFillComplete(
                  0, false, 0)) == kHotNoexcept);

// The macro itself: FDIP_HOT_NOEXCEPT must track the check flag, not
// a hard-coded true/false someone "simplified".
struct Probe
{
    void f() FDIP_HOT_NOEXCEPT {}
};
static_assert(noexcept(lv<Probe>().f()) == kHotNoexcept);

/** The contract above is entirely compile-time; this test exists so
 *  the binary reports a green line (and ctest has something to run). */
TEST(CoreHotpathContract, CompileTimePinsHold)
{
    SUCCEED();
}

} // namespace
} // namespace fdip
