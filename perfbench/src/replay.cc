#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bpu/bpu.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/ftq.h"
#include "prefetch/factory.h"

namespace perfbench
{

using fdip::Addr;

namespace
{

/** Fetch blocks per timed batch: enough calls that the clock's jitter
 *  stays small next to a batch, few enough that the BPU sees its own
 *  updates after at most this many blocks. */
constexpr std::size_t kChunkBlocks = 16;

/** One committed-path branch. */
struct Branch
{
    Addr pc = 0;
    Addr target = 0; ///< Taken target, or the static target if not taken.
    fdip::InstClass kind = fdip::InstClass::kAlu;
    bool taken = false;
};

/** One committed-path fetch block: a run of sequential instructions
 *  inside one 32B block, ended by a taken branch or the block edge. */
struct Block
{
    Addr start = 0;
    Addr line = 0;
    std::uint32_t firstBranch = 0; ///< Index into the branch vector.
    std::uint32_t numBranches = 0;
};

void
splitTrace(const fdip::Trace &trace, std::vector<Block> *blocks,
           std::vector<Branch> *branches)
{
    const Addr block_mask = ~static_cast<Addr>(fdip::kFetchBlockBytes - 1);
    const Addr line_mask = ~static_cast<Addr>(fdip::kCacheLineBytes - 1);
    Block cur;
    bool open = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Addr pc = trace.pcOf(i);
        if (!open) {
            cur = Block{pc, pc & line_mask,
                        static_cast<std::uint32_t>(branches->size()), 0};
            open = true;
        }
        const fdip::DynInst &d = trace.insts[i];
        const fdip::StaticInst &si = trace.staticOf(i);
        bool ends = false;
        if (fdip::isBranch(si.cls)) {
            const bool taken = d.taken != 0;
            branches->push_back(
                Branch{pc, taken ? d.info : si.target, si.cls, taken});
            ++cur.numBranches;
            ends = taken;
        }
        const Addr next = trace.nextPcOf(i);
        if (ends || (next & block_mask) != (pc & block_mask) ||
            next != pc + fdip::kInstBytes) {
            blocks->push_back(cur);
            open = false;
        }
    }
    if (open)
        blocks->push_back(cur);
}

/**
 * Times batches of calls. Each batch costs one clock pair (~35 ns on a
 * virtualized clock), comparable to a single 40 ns call, so the pair's
 * own cost, measured once as the median of empty batches, is taken off
 * every batch; empty batches are not timed at all.
 */
class BatchTimer
{
  public:
    BatchTimer()
    {
        std::vector<double> gaps(2001);
        for (double &g : gaps)
            g = elapsedNs([] {});
        std::nth_element(gaps.begin(), gaps.begin() + 1000, gaps.end());
        overheadNs_ = gaps[1000];
    }

    /** Adds the host time of @p f() to @p acc_ns when @p calls > 0. */
    template <typename F>
    void
    time(double &acc_ns, std::size_t calls, F &&f) const
    {
        if (calls != 0)
            acc_ns += elapsedNs(f) - overheadNs_;
    }

  private:
    template <typename F>
    static double
    elapsedNs(F &&f)
    {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::nano>(t1 - t0).count();
    }

    double overheadNs_ = 0;
};

} // namespace

void
ReplayResult::add(const ReplayResult &o)
{
    insts += o.insts;
    blocks += o.blocks;
    branches += o.branches;
    btbHits += o.btbHits;
    condBranches += o.condBranches;
    condMispredicts += o.condMispredicts;
    indirectBranches += o.indirectBranches;
    historyPushes += o.historyPushes;
    l1iAccesses += o.l1iAccesses;
    l1iHits += o.l1iHits;
    hierFetches += o.hierFetches;
    prefetchHookCalls += o.prefetchHookCalls;
    prefetchesIssued += o.prefetchesIssued;
    prefetchesFilled += o.prefetchesFilled;
    prefetchesUseful += o.prefetchesUseful;
    ftqPushes += o.ftqPushes;
    btbLookupNs += o.btbLookupNs;
    btbInsertNs += o.btbInsertNs;
    dirNs += o.dirNs;
    indirectNs += o.indirectNs;
    historyPushNs += o.historyPushNs;
    historySnapshotNs += o.historySnapshotNs;
    l1iAccessNs += o.l1iAccessNs;
    hierFetchNs += o.hierFetchNs;
    prefetchHookNs += o.prefetchHookNs;
    prefetchProbeNs += o.prefetchProbeNs;
    ftqNs += o.ftqNs;
}

ReplayResult
replayTrace(const fdip::CoreConfig &cfg, const std::string &prefetcher,
            const fdip::Trace &trace)
{
    std::vector<Block> blocks;
    std::vector<Branch> branches;
    blocks.reserve(trace.size() / 4);
    branches.reserve(trace.size() / 4);
    splitTrace(trace, &blocks, &branches);

    fdip::Bpu bpu(cfg.bpu);
    fdip::Cache l1i(cfg.l1i);
    fdip::MemoryHierarchy mem(cfg.mem);
    std::unique_ptr<fdip::InstPrefetcher> pf =
        fdip::makePrefetcher(prefetcher);
    pf->bind(bpu, trace.image());
    fdip::Ftq ftq(cfg.ftqEntries);

    ReplayResult r;
    r.insts = trace.size();
    r.blocks = blocks.size();
    r.branches = branches.size();

    const BatchTimer timer;

    // Per-chunk scratch, sized once so the timed loops never allocate.
    std::vector<const Branch *> cond;
    std::vector<const Branch *> indirect;
    std::vector<const Branch *> pushes;
    std::vector<fdip::FtqEntry> entries(kChunkBlocks);
    std::vector<bool> hit(kChunkBlocks);
    std::vector<Addr> evicted(kChunkBlocks);
    std::vector<Addr> misses;
    std::vector<Addr> candidates;
    std::vector<Addr> pf_fills;
    std::vector<Addr> pf_evicted;
    misses.reserve(kChunkBlocks);
    candidates.reserve(kChunkBlocks * 64);
    pf_fills.reserve(kChunkBlocks * 64);
    pf_evicted.reserve(kChunkBlocks * 64);
    // Lines brought in by a prefetch and not yet hit by a demand access.
    std::unordered_set<Addr> prefetched;

    std::uint64_t seq = 0;
    for (std::size_t c0 = 0; c0 < blocks.size(); c0 += kChunkBlocks) {
        const std::size_t nb = std::min(kChunkBlocks, blocks.size() - c0);
        const std::size_t br0 = blocks[c0].firstBranch;
        const std::size_t br1 = blocks[c0 + nb - 1].firstBranch +
                                blocks[c0 + nb - 1].numBranches;
        const fdip::Cycle now = c0;

        // Which branches each BPU phase calls for, sorted out untimed.
        cond.clear();
        indirect.clear();
        pushes.clear();
        for (std::size_t b = br0; b < br1; ++b) {
            const Branch &br = branches[b];
            if (fdip::isConditional(br.kind))
                cond.push_back(&br);
            if (fdip::isIndirect(br.kind))
                indirect.push_back(&br);
            if (bpu.history().recordsEvent(br.taken))
                pushes.push_back(&br);
        }

        timer.time(r.historySnapshotNs, nb, [&] {
            for (std::size_t k = 0; k < nb; ++k)
                entries[k].histSnap = bpu.history().snapshot();
        });
        std::uint64_t btb_hits = 0;
        timer.time(r.btbLookupNs, br1 - br0, [&] {
            for (std::size_t b = br0; b < br1; ++b)
                btb_hits += bpu.lookupBranch(branches[b].pc).has_value();
        });
        r.btbHits += btb_hits;
        std::uint64_t wrong = 0;
        timer.time(r.dirNs, cond.size(), [&] {
            for (const Branch *br : cond) {
                const fdip::DirectionPrediction p =
                    bpu.predictDirection(br->pc, br->taken);
                wrong += p.taken != br->taken;
                bpu.updateDirection(br->pc, br->taken, p);
            }
        });
        r.condBranches += cond.size();
        r.condMispredicts += wrong;
        timer.time(r.indirectNs, indirect.size(), [&] {
            for (const Branch *br : indirect) {
                fdip::IttagePrediction meta;
                bpu.predictIndirect(br->pc, meta);
                bpu.updateIndirect(br->pc, br->target, meta);
            }
        });
        r.indirectBranches += indirect.size();
        timer.time(r.btbInsertNs, br1 - br0, [&] {
            for (std::size_t b = br0; b < br1; ++b) {
                const Branch &br = branches[b];
                bpu.insertBranch(br.pc, br.kind, br.target, br.taken);
            }
        });
        timer.time(r.historyPushNs, pushes.size(), [&] {
            fdip::BranchHistory &h = bpu.history();
            for (const Branch *br : pushes)
                h.pushBranch(br->pc, br->target, br->taken);
        });
        r.historyPushes += pushes.size();

        // L1I demand stream: access, fill on a miss.
        misses.clear();
        timer.time(r.l1iAccessNs, nb, [&] {
            for (std::size_t k = 0; k < nb; ++k) {
                const Addr line = blocks[c0 + k].line;
                hit[k] = l1i.access(line).has_value();
                if (!hit[k]) {
                    evicted[k] = l1i.fill(line);
                    misses.push_back(line);
                }
            }
        });
        timer.time(r.hierFetchNs, misses.size(), [&] {
            for (const Addr line : misses)
                mem.fetchInstLine(line, now);
        });
        r.l1iAccesses += nb;
        r.hierFetches += misses.size();
        for (std::size_t k = 0; k < nb; ++k) {
            if (hit[k]) {
                ++r.l1iHits;
                r.prefetchesUseful += prefetched.erase(blocks[c0 + k].line);
            } else {
                prefetched.erase(evicted[k]);
            }
        }

        // Prefetcher: the demand and branch hooks, then drain.
        candidates.clear();
        std::uint64_t hooks = 0;
        timer.time(r.prefetchHookNs, nb, [&] {
            for (std::size_t k = 0; k < nb; ++k) {
                const Block &blk = blocks[c0 + k];
                pf->onDemandLookup(blk.line, hit[k], now);
                for (std::uint32_t b = 0; b < blk.numBranches; ++b) {
                    const Branch &br = branches[blk.firstBranch + b];
                    pf->onBranch(br.pc, br.kind, br.target, br.taken);
                }
                if (!hit[k])
                    pf->onFillComplete(blk.line, false, now);
                hooks += 2 + blk.numBranches + (hit[k] ? 0 : 1);
                for (Addr a = pf->popPrefetch(); a != fdip::kNoAddr;
                     a = pf->popPrefetch())
                    candidates.push_back(a);
            }
        });
        r.prefetchesIssued += candidates.size();

        // Prefetch probes beside the demand probes, then their fills.
        pf_fills.clear();
        pf_evicted.clear();
        timer.time(r.prefetchProbeNs, candidates.size(), [&] {
            for (const Addr line : candidates) {
                if (l1i.probe(line).has_value())
                    continue;
                pf_evicted.push_back(l1i.fill(line));
                pf_fills.push_back(line);
            }
        });
        timer.time(r.hierFetchNs, pf_fills.size(), [&] {
            for (const Addr line : pf_fills)
                mem.fetchInstLine(line, now);
        });
        timer.time(r.prefetchHookNs, pf_fills.size(), [&] {
            for (const Addr line : pf_fills)
                pf->onFillComplete(line, true, now);
        });
        hooks += pf_fills.size();
        r.prefetchHookCalls += hooks;
        r.hierFetches += pf_fills.size();
        r.prefetchesFilled += pf_fills.size();
        for (std::size_t i = 0; i < pf_fills.size(); ++i) {
            prefetched.erase(pf_evicted[i]);
            prefetched.insert(pf_fills[i]);
        }

        // FTQ: one entry per block, popping the head once it is full.
        for (std::size_t k = 0; k < nb; ++k) {
            fdip::FtqEntry &e = entries[k];
            e.startAddr = blocks[c0 + k].start;
            e.lineAddr = blocks[c0 + k].line;
            e.state = fdip::FtqState::kPredicted;
            e.seq = seq++;
            e.onCorrectPath = true;
        }
        timer.time(r.ftqNs, nb, [&] {
            for (std::size_t k = 0; k < nb; ++k) {
                if (ftq.full())
                    ftq.popHead();
                ftq.push(std::move(entries[k]));
            }
        });
        r.ftqPushes += nb;
    }
    return r;
}

} // namespace perfbench
