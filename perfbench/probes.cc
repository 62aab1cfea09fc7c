#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "config/system_config.hh"
#include "core/stash.hh"
#include "core/vp_map.hh"
#include "mem/backend/mem_backend.hh"
#include "mem/cache.hh"
#include "mem/fabric.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"

namespace perfbench
{

namespace
{

using namespace stashsim;
using Clock = std::chrono::steady_clock;

/** Repetitions per probe; odd, so the median is one sample. */
constexpr int probeReps = 301;

/** A volatile store keeps the timed translations from being elided. */
volatile PhysAddr translateSink = 0;

double
elapsedNs(Clock::time_point t0)
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * One GPU node's private memories in front of the application
 * machine's 16 LLC banks, wired the way System wires them.
 */
struct MiniSystem
{
    SystemConfig cfg = SystemConfig::applicationDefault();
    EventQueue eq;
    MainMemory mem;
    PageTable pt;
    Mesh mesh{eq, MeshParams{}};
    Fabric fabric{mesh};
    std::vector<std::unique_ptr<MemBackend>> backends;
    std::vector<std::unique_ptr<LlcBank>> llc;
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<L1Cache> cache;
    std::unique_ptr<Stash> stash;

    MiniSystem()
    {
        for (NodeId n = 0; n < cfg.numNodes(); ++n) {
            backends.push_back(makeMemBackend(cfg.memBackend, eq, mem,
                                              gpuClockPeriod));
            llc.push_back(std::make_unique<LlcBank>(
                eq, fabric, *backends.back(), n, llcParams(cfg)));
            fabric.registerObject(n, Unit::Llc, llc.back().get());
        }
        tlb = std::make_unique<Tlb>(pt, 64);
        cache = std::make_unique<L1Cache>(eq, fabric, *tlb, 0,
                                          NodeId(0),
                                          L1Cache::Params{});
        fabric.registerObject(NodeId(0), Unit::L1, cache.get());
        fabric.registerCore(0, NodeId(0));
        stash = std::make_unique<Stash>(eq, fabric, pt, 1, NodeId(1),
                                        Stash::Params{});
        fabric.registerObject(NodeId(1), Unit::Stash, stash.get());
        fabric.registerCore(1, NodeId(1));
    }

    static LlcBank::Params
    llcParams(const SystemConfig &c)
    {
        LlcBank::Params lp;
        lp.bankBytes = c.llcBankBytes;
        lp.assoc = c.llcAssoc;
        lp.accessCycles = c.llcBankCycles;
        return lp;
    }
};

void
ignoreLine(const LineData &)
{
}

/**
 * 32 loads to distinct lines of one L1 set, each followed by a second
 * load to the same line.  The first `assoc` lines pin every way of
 * the set behind outstanding MSHRs, so the rest wait in the deferred
 * queue and are replayed as the fills return.
 */
ProbeResult
l1DeferredBurst()
{
    MiniSystem s;
    const Addr setStride = Addr(s.cache->numSets()) * lineBytes;
    constexpr unsigned burst = 32;
    Addr base = 0x4000'0000;
    std::vector<double> us;
    for (int rep = 0; rep < probeReps; ++rep) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < burst; ++i) {
            const Addr line = base + i * setStride;
            s.cache->access(line, wordBit(0), false, nullptr,
                            ignoreLine);
            s.cache->access(line, wordBit(1), false, nullptr,
                            ignoreLine);
        }
        s.eq.run();
        us.push_back(elapsedNs(t0) / 1e3);
        base += burst * setStride;
    }
    return {"l1.deferred_burst_us", "us", median(us),
            "32 same-set L1 misses + 32 repeat loads, drained"};
}

/** Loads every line of a freshly mapped 1 KB stash tile. */
ProbeResult
stashMissBurst()
{
    MiniSystem s;
    constexpr std::uint32_t tileWords = 256;
    std::vector<double> us;
    for (int rep = 0; rep < probeReps; ++rep) {
        TileSpec t;
        t.globalBase = 0x8000'0000 + Addr(rep) * 0x10000;
        t.fieldSize = 4;
        t.objectSize = 4;
        t.rowSize = tileWords;
        t.numStrides = 1;
        const Stash::AddMapResult m = s.stash->addMap(0, t);
        const auto t0 = Clock::now();
        for (std::uint32_t off = 0; off < tileWords * 4;
             off += lineBytes) {
            s.stash->access(LocalAddr(off), fullLineMask, false,
                            nullptr, m.idx, ignoreLine);
        }
        s.eq.run();
        us.push_back(elapsedNs(t0) / 1e3);
        s.stash->releaseMap(m.idx);
        s.stash->endKernel();
    }
    return {"stash.miss_burst_us", "us", median(us),
            "16 stash line misses on a fresh 1 KB mapping, drained"};
}

/** VpMap::translate over 64 installed pages. */
ProbeResult
vpmapTranslate()
{
    PageTable pt;
    VpMap vp(pt, 64);
    constexpr Addr pageBase = 0x1000'0000;
    constexpr Addr pageBytes = 4096;
    for (Addr p = 0; p < 64; ++p)
        vp.install(pageBase + p * pageBytes, MapIndex(p));
    constexpr unsigned calls = 4096;
    std::vector<double> ns;
    PhysAddr sink = 0;
    for (int rep = 0; rep < probeReps; ++rep) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < calls; ++i) {
            const Addr va = pageBase + Addr(i % 64) * pageBytes +
                            Addr(i % 1024) * 4;
            sink ^= vp.translate(va, MapIndex(i % 64));
        }
        ns.push_back(elapsedNs(t0) / calls);
    }
    translateSink = sink;
    return {"vpmap.translate_ns", "ns", median(ns),
            "one VpMap::translate hit"};
}

/** Constructs one application-machine LLC bank. */
ProbeResult
llcBankBuild()
{
    MiniSystem s;
    std::vector<double> us;
    for (int rep = 0; rep < probeReps; ++rep) {
        const auto t0 = Clock::now();
        auto bank = std::make_unique<LlcBank>(
            s.eq, s.fabric, *s.backends[0], NodeId(0),
            MiniSystem::llcParams(s.cfg));
        us.push_back(elapsedNs(t0) / 1e3);
    }
    return {"llc.bank_build_us", "us", median(us),
            "one LlcBank constructor (application machine geometry)"};
}

/** Corner-to-corner packets across the 4x4 mesh, drained. */
ProbeResult
nocSend()
{
    EventQueue eq;
    Mesh mesh(eq, MeshParams{});
    constexpr unsigned sends = 64;
    std::uint64_t delivered = 0;
    std::vector<double> ns;
    for (int rep = 0; rep < probeReps; ++rep) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < sends; ++i) {
            mesh.send(0, 15, 72, MsgClass::Read,
                      [&delivered]() { ++delivered; });
        }
        eq.run();
        ns.push_back(elapsedNs(t0) / sends);
    }
    if (delivered != std::uint64_t(probeReps) * sends)
        throw std::runtime_error("noc probe: packets lost");
    return {"noc.send_ns", "ns", median(ns),
            "one Mesh::send corner to corner, drained"};
}

} // namespace

std::vector<ProbeResult>
runProbes()
{
    return {l1DeferredBurst(), stashMissBurst(), vpmapTranslate(),
            llcBankBuild(), nocSend()};
}

} // namespace perfbench
