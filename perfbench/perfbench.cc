/**
 * @file
 * perfbench: the repository benchmark.  README.md says why each
 * workload exists and which layer metric should move which
 * end-to-end metric; run.py builds this program and runs it.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scale quick|smoke] [--out DIR]
 *
 * One invocation runs the workload's whole grid serially, pass after
 * pass, checking every run's final-memory validation and simulated-
 * output digest.  Between runs it sets the workload up again (the
 * median set-up is setup_s).  With --trace 0 it prints the end-to-end
 * metrics, whose host times are process CPU time scaled to a fixed
 * host speed by a reference task timed between runs (README.md, "The
 * reference clock"; their wall-time twins are printed beside them,
 * not in the result line); with
 * --trace 1 it alternates untraced and traced passes and prints
 * the per-layer metrics.  Spans are recorded in memory from this
 * file's own calls into the library (nothing inside src/ is traced)
 * and written out as a Chrome trace at the end.  The last stdout line
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/run.hh"
#include "driver/sample.hh"
#include "driver/system.hh"
#include "probes.hh"
#include "report/json.hh"
#include "snapshot/snapshot.hh"
#include "workloads/synthetic/synth_workloads.hh"
#include "workloads/workload_factory.hh"

namespace perfbench
{

namespace
{

using namespace stashsim;
namespace fs = std::filesystem;
using workloads::Scale;
using workloads::WorkloadFactory;
using workloads::WorkloadParams;

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

/** Seconds since the process started (the span time base). */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

/**
 * Host CPU seconds of the process, all threads.  The end-to-end
 * timings use it: on a shared host the vCPU is now and then taken
 * away (steal) and wall time counts that, CPU time does not.
 */
double
cpuNow()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * CPU seconds of one fixed reference task that runs none of the
 * simulator's code but the kind of work it does: std::map inserts,
 * finds and erases, a sort, and calls through std::function.  Timed
 * before every run, it follows the host's speed, which other tenants
 * of a shared machine move by up to 2x within minutes, in CPU time as
 * much as in wall time (they share its caches and cores).
 */
double
referenceCpuS()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const double c0 = cpuNow();
    std::map<std::uint64_t, std::uint64_t> m;
    for (int i = 0; i < 4000; ++i)
        m[next() & 0xffff] = i;
    std::uint64_t acc = 0;
    for (int i = 0; i < 4000; ++i) {
        const auto it = m.find(next() & 0xffff);
        if (it != m.end())
            acc += it->second;
    }
    for (int i = 0; i < 2000; ++i)
        m.erase(next() & 0xffff);
    std::vector<std::uint32_t> v(20000);
    for (std::uint32_t &e : v)
        e = std::uint32_t(next());
    std::sort(v.begin(), v.end());
    const std::function<std::uint64_t(std::uint64_t)> ops[4] = {
        [](std::uint64_t a) { return a * 3 + 1; },
        [](std::uint64_t a) { return a >> 1; },
        [](std::uint64_t a) { return a ^ 0x5555; },
        [](std::uint64_t a) { return a + 77; },
    };
    for (int i = 0; i < 100000; ++i)
        acc = ops[next() & 3](acc) + ((acc & 1) ? 3 : 5);
    // Keep the result live, as benchmark::DoNotOptimize does.
    asm volatile("" : : "r"(acc + m.size() + v[v.size() / 2]) : "memory");
    return cpuNow() - c0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Spans kept in memory and written out once, at the end. */
class SpanLog
{
  public:
    using Id = std::size_t;
    static constexpr Id none = ~Id(0);

    Id
    open(std::string name, Id parent)
    {
        spans.push_back({std::move(name), parent, now(), -1});
        return spans.size() - 1;
    }

    void close(Id id) { spans[id].end = now(); }

    Id size() const { return spans.size(); }

    /** Seconds per span name, over spans [from, size()). */
    std::map<std::string, double>
    totalsSince(Id from) const
    {
        std::map<std::string, double> t;
        for (Id i = from; i < spans.size(); ++i) {
            if (spans[i].end >= 0)
                t[spans[i].name] += spans[i].end - spans[i].begin;
        }
        return t;
    }

    /** Chrome trace ("X" events, microseconds, args.parent). */
    void
    writeChrome(std::ostream &os) const
    {
        report::JsonValue events = report::JsonValue::array();
        for (Id i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.end < 0)
                continue;
            report::JsonValue e = report::JsonValue::object();
            e["name"] = s.name;
            e["ph"] = "X";
            e["pid"] = 1;
            e["tid"] = 1;
            e["ts"] = s.begin * 1e6;
            e["dur"] = (s.end - s.begin) * 1e6;
            report::JsonValue args = report::JsonValue::object();
            args["id"] = double(i);
            args["parent"] = s.parent == none ? -1.0 : double(s.parent);
            e["args"] = std::move(args);
            events.push(std::move(e));
        }
        report::JsonValue doc = report::JsonValue::object();
        doc["traceEvents"] = std::move(events);
        doc.write(os);
        os << "\n";
    }

  private:
    struct Span
    {
        std::string name;
        Id parent;
        double begin;
        double end; //!< -1 while open
    };
    std::vector<Span> spans;
};

/** Turns the driver's phase boundaries into child spans of a run. */
class PhaseSpans : public PhaseListener
{
  public:
    SpanLog *log = nullptr;
    SpanLog::Id parent = SpanLog::none;

    void
    phaseBegin(const char *name, Tick) override
    {
        open = log->open(phaseSpanName(name), parent);
    }

    void phaseEnd(const char *, Tick) override { log->close(open); }

  private:
    static std::string
    phaseSpanName(const char *name)
    {
        if (std::strcmp(name, "gpu kernel phase") == 0)
            return "driver.phase.gpu";
        if (std::strcmp(name, "cpu phase") == 0)
            return "driver.phase.cpu";
        if (std::strcmp(name, "final flush") == 0)
            return "driver.phase.flush";
        return std::string("driver.phase.") + name;
    }

    SpanLog::Id open = SpanLog::none;
};

// ---------------------------------------------------------------------
// Runs and passes
// ---------------------------------------------------------------------

/**
 * Sums the live registry over component instances: "cu3.l1.missWords"
 * and "cpu0.l1.missWords" fold into "l1.missWords", "llc7.fills" into
 * "llc.fills".  The host-time entries (sim.*, simperf.*) are dropped.
 */
std::map<std::string, double>
foldComponents(const std::map<std::string, double> &values)
{
    std::map<std::string, double> out;
    for (const auto &[path, v] : values) {
        const std::size_t dot = path.find('.');
        if (dot == std::string::npos)
            continue;
        const std::string head = path.substr(0, dot);
        const std::string kind =
            head.substr(0, head.find_last_not_of("0123456789") + 1);
        if (kind == "sim" || kind == "simperf")
            continue;
        const std::string rest = path.substr(dot + 1);
        out[kind == "cu" || kind == "cpu" ? rest : kind + "." + rest] +=
            v;
    }
    return out;
}

/** FNV-1a over the simulated outputs of one run. */
std::uint64_t
outputDigest(const RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    const auto mixDouble = [&mix](double d) { mix(&d, sizeof d); };
    for (const auto &[name, v] : r.stats.flatten()) {
        mix(name.data(), name.size());
        mixDouble(v);
    }
    for (double e : {r.energy.gpuCore, r.energy.l1, r.energy.local,
                     r.energy.l2, r.energy.noc})
        mixDouble(e);
    const std::uint64_t cycles = r.gpuCycles;
    mix(&cycles, sizeof cycles);
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** What one simulated run produced. */
struct RunOutcome
{
    std::string label;
    double ms = 0;    //!< host wall time of the run
    double cpuMs = 0; //!< host CPU time of the run
    bool ok = false;
    std::string error;
    std::uint64_t digest = 0;
    RunResult result;
    /** Folded registry counters (traced passes only). */
    std::map<std::string, double> components;
};

struct PassOutcome
{
    double wallS = 0;
    double cpuS = 0;
    /** Median referenceCpuS() over the pass's slots (untraced). */
    double refS = 0;
    std::vector<RunOutcome> runs;
    /** Seconds per span name (traced passes only). */
    std::map<std::string, double> spans;
};

/** Scratch state the RunSpec hooks of one run fill in. */
struct RunHooks
{
    double madeAt = -1;    //!< entry of the make hook (wall)
    double madeAtCpu = -1; //!< the same, in CPU time
    SpanLog::Id root = SpanLog::none;
    SpanLog::Id build = SpanLog::none;
    PhaseSpans phases;
    std::map<std::string, double> components;
};

/**
 * Installs @p spec's make hook (hand out a copy of the pre-generated
 * input, timestamp the run's start) and, when @p log is set, the
 * instrument/finish hooks that record the build, run, phase and
 * registry-read spans.  @p hooks must outlive the run.
 */
void
hookSpec(RunSpec &spec, std::function<Workload(MemOrg)> input,
         SpanLog *log, RunHooks &hooks)
{
    spec.make = [input = std::move(input), log,
                 &hooks](const WorkloadParams &p) {
        hooks.madeAt = now();
        hooks.madeAtCpu = cpuNow();
        if (!log)
            return input(p.org);
        hooks.root = log->open("run", SpanLog::none);
        const SpanLog::Id copy = log->open("workloads.copy", hooks.root);
        Workload wl = input(p.org);
        log->close(copy);
        hooks.build = log->open("driver.build", hooks.root);
        return wl;
    };
    if (!log)
        return;
    spec.instrument = [log, &hooks](System &sys) {
        log->close(hooks.build);
        hooks.phases.log = log;
        hooks.phases.parent = log->open("driver.run", hooks.root);
        sys.eventQueue().addPhaseListener(&hooks.phases);
    };
    spec.finish = [log, &hooks](System &sys, const RunResult &) {
        sys.eventQueue().removePhaseListener(&hooks.phases);
        log->close(hooks.phases.parent);
        const SpanLog::Id st = log->open("report.stats", hooks.root);
        hooks.components = foldComponents(sys.statsRegistry().values());
        log->close(st);
        log->close(hooks.root);
    };
}

/** Marks @p o failed unless @p r validated cleanly. */
void
judge(RunOutcome &o, const RunResult &r)
{
    o.result = r;
    o.digest = outputDigest(r);
    o.ok = r.validated && r.errors.empty() && !r.truncated;
    if (!o.ok) {
        o.error = r.errors.empty() ? "validation failed" : r.errors[0];
    }
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * Called before slot k of the n in a pass (a run, or a generator's
 * fan-out); it times the reference task and may set the workload up
 * again.  Its time is left out of the pass's and the runs' times.
 */
using SlotHook = std::function<void(std::size_t k, std::size_t n)>;

class Workbench
{
  public:
    virtual ~Workbench() = default;
    /** Generates every input (and warms, where the workload does). */
    virtual void setup(SpanLog *log) = 0;
    /** Runs the whole grid once. */
    virtual PassOutcome pass(SpanLog *log, const SlotHook &beforeSlot) = 0;
    /**
     * Paper reference error of a pass, or nullopt where the
     * repository holds no reference (the model is unvalidated).
     */
    virtual std::optional<double>
    paperTimeErr(const PassOutcome &) const
    {
        return std::nullopt;
    }
    /** Times the snapshot write/restore path (traced runs). */
    virtual std::map<std::string, double> snapshotProbe(SpanLog &)
    {
        return {};
    }
};

/** Stash time normalized to Scratch, as the paper reports it. */
struct PaperRef
{
    MemOrg stashOrg = MemOrg::Stash;
    /** Per-workload values (fig5); empty when only an average. */
    std::map<std::string, double> perWorkload;
    /** Average over the workloads (fig6); < 0 when per-workload. */
    double average = -1;
};

/** A paper grid: factory workloads x memory organizations. */
class GridBench : public Workbench
{
  public:
    GridBench(const std::vector<std::string> &names,
              const std::vector<MemOrg> &orgs, Scale scale,
              PaperRef paper)
        : scale(scale), paper(std::move(paper))
    {
        for (const std::string &name : names) {
            for (MemOrg org : orgs) {
                Point pt;
                pt.workload = name;
                pt.org = org;
                pt.cfg = WorkloadFactory::instance().defaultConfig(name);
                pt.cfg.memOrg = org;
                points.push_back(std::move(pt));
            }
        }
    }

    void
    setup(SpanLog *log) override
    {
        for (Point &pt : points)
            pt.input = Workload{};
        for (Point &pt : points) {
            WorkloadParams p;
            p.org = pt.org;
            p.cpuCores = pt.cfg.numCpuCores;
            p.scale = scale;
            const SpanLog::Id s =
                log ? log->open("workloads.make", SpanLog::none)
                    : SpanLog::none;
            pt.input = WorkloadFactory::instance().make(pt.workload, p);
            if (log)
                log->close(s);
        }
    }

    PassOutcome
    pass(SpanLog *log, const SlotHook &beforeSlot) override
    {
        PassOutcome out;
        const SpanLog::Id from = log ? log->size() : 0;
        const double t0 = now(), c0 = cpuNow();
        double hookS = 0, hookCpuS = 0;
        for (std::size_t k = 0; k < points.size(); ++k) {
            const double h0 = now(), hc0 = cpuNow();
            beforeSlot(k, points.size());
            hookS += now() - h0;
            hookCpuS += cpuNow() - hc0;
            Point &pt = points[k];
            RunSpec spec;
            spec.workload = pt.workload;
            spec.org = pt.org;
            spec.scale = scale;
            spec.config = pt.cfg;
            spec.shards = 1;
            RunHooks hooks;
            hookSpec(spec, [&pt](MemOrg) { return pt.input; }, log,
                     hooks);
            RunOutcome o;
            o.label = spec.label();
            const double r0 = now(), rc0 = cpuNow();
            try {
                judge(o, runSpec(spec));
            } catch (const std::exception &e) {
                o.ok = false;
                o.error = e.what();
            }
            o.ms = (now() - r0) * 1e3;
            o.cpuMs = (cpuNow() - rc0) * 1e3;
            o.components = std::move(hooks.components);
            out.runs.push_back(std::move(o));
        }
        out.wallS = now() - t0 - hookS;
        out.cpuS = cpuNow() - c0 - hookCpuS;
        if (log)
            out.spans = log->totalsSince(from);
        return out;
    }

    std::optional<double>
    paperTimeErr(const PassOutcome &pass) const override
    {
        // cycles(stashOrg) / cycles(Scratch) per workload.
        std::map<std::string, double> stash, scratch;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const double c = double(pass.runs[i].result.gpuCycles);
            if (points[i].org == paper.stashOrg)
                stash[points[i].workload] = c;
            else if (points[i].org == MemOrg::Scratch)
                scratch[points[i].workload] = c;
        }
        double sumErr = 0, sumRatio = 0;
        std::size_t n = 0;
        for (const auto &[name, cyc] : stash) {
            if (scratch[name] <= 0)
                return std::nullopt;
            const double ratio = cyc / scratch[name];
            sumRatio += ratio;
            const auto ref = paper.perWorkload.find(name);
            if (ref != paper.perWorkload.end())
                sumErr += std::fabs(ratio - ref->second);
            ++n;
        }
        if (n == 0)
            return std::nullopt;
        if (paper.average >= 0)
            return std::fabs(sumRatio / double(n) - paper.average);
        return sumErr / double(paper.perWorkload.size());
    }

  private:
    struct Point
    {
        std::string workload;
        MemOrg org;
        SystemConfig cfg;
        Workload input;
    };

    Scale scale;
    PaperRef paper;
    std::vector<Point> points;
};

/**
 * Sampled simulation: each generator warms once to its boundary
 * snapshot (set-up), then every pass fans the measured intervals out
 * through the SampleDriver across org and backend deltas.
 */
class FanoutBench : public Workbench
{
  public:
    FanoutBench(Scale scale, std::uint64_t seed, std::string state_root)
        : scale(scale), seed(seed), stateRoot(std::move(state_root))
    {
        std::string err;
        if (!parseSampleDeltas(deltaList, deltas, err))
            throw std::runtime_error(err);
    }

    void
    setup(SpanLog *log) override
    {
        fs::remove_all(stateRoot);
        fs::create_directories(stateRoot);
        inputs.clear();
        const SystemConfig mc = SystemConfig::applicationDefault();
        for (std::size_t g = 0; g < gens.size(); ++g) {
            for (MemOrg org : orgs) {
                WorkloadParams p;
                p.org = org;
                p.cpuCores = mc.numCpuCores;
                p.scale = scale;
                workloads::SynthConfig c = workloads::scaledSynthConfig(p);
                c.seed = seed;
                c.mixRoPct = gens[g].roPct;
                c.mixRwPct = gens[g].rwPct;
                if (gens[g].spill) {
                    c.mixSliceWords *= 4;
                    c.mixPrivWords *= 4;
                }
                const SpanLog::Id s =
                    log ? log->open("workloads.make", SpanLog::none)
                        : SpanLog::none;
                inputs[{g, org}] = workloads::makeSynthetic(gens[g].maker, c);
                if (log)
                    log->close(s);
            }
        }
        warmPaths.assign(gens.size(), "");
        for (std::size_t g = 0; g < gens.size(); ++g) {
            // decorate() runs once the warm stage is done and before
            // the fan-out is dispatched; raising the stop flag there
            // ends runSample() with the boundary snapshot written and
            // no interval simulated, so set-up pays for the warmup
            // alone.
            std::atomic<bool> stop{false};
            SampleRequest req = request(g);
            req.stop = &stop;
            req.decorate = [&stop](std::size_t, RunSpec &) {
                stop = true;
            };
            const SpanLog::Id s =
                log ? log->open("sample.warm", SpanLog::none)
                    : SpanLog::none;
            const SampleOutcome out = runSample(req);
            if (log)
                log->close(s);
            if (!out.warm.result.validated ||
                out.sampledFrom.checkpoint.empty()) {
                throw std::runtime_error(
                    std::string("warm stage failed: ") + gens[g].label);
            }
            warmPaths[g] = stateDir(g) + "/" + out.sampledFrom.checkpoint;
        }
    }

    PassOutcome
    pass(SpanLog *log, const SlotHook &beforeSlot) override
    {
        PassOutcome out;
        const SpanLog::Id from = log ? log->size() : 0;
        const double t0 = now(), c0 = cpuNow();
        double hookS = 0, hookCpuS = 0;
        for (std::size_t g = 0; g < gens.size(); ++g) {
            const double h0 = now(), hc0 = cpuNow();
            beforeSlot(g, gens.size());
            hookS += now() - h0;
            hookCpuS += cpuNow() - hc0;
            // A fresh measure namespace, or the farm would serve the
            // previous pass's cached results instead of simulating.
            fs::remove_all(stateDir(g) + "/measure");
            std::vector<RunHooks> hooks(deltas.size());
            SampleRequest req = request(g);
            req.decorate = [&](std::size_t k, RunSpec &s) {
                hookSpec(s, maker(g), log, hooks[k]);
            };
            const SpanLog::Id span =
                log ? log->open("sample.fanout", SpanLog::none)
                    : SpanLog::none;
            SampleOutcome so;
            std::string failure;
            try {
                so = runSample(req);
            } catch (const std::exception &e) {
                failure = e.what();
            }
            const double t1 = now(), tc1 = cpuNow();
            if (log)
                log->close(span);
            for (std::size_t k = 0; k < deltas.size(); ++k) {
                RunOutcome o;
                o.label = gens[g].label + "+" + deltas[k].name;
                if (k < so.runs.size() && hooks[k].madeAt >= 0) {
                    judge(o, so.runs[k].result);
                    // An interval runs from its own start to the next
                    // one's: System teardown and the farm's lease and
                    // result files are part of what it costs.
                    const bool next = k + 1 < deltas.size() &&
                                      hooks[k + 1].madeAt >= 0;
                    o.ms = ((next ? hooks[k + 1].madeAt : t1) -
                            hooks[k].madeAt) *
                           1e3;
                    o.cpuMs = ((next ? hooks[k + 1].madeAtCpu : tc1) -
                               hooks[k].madeAtCpu) *
                              1e3;
                } else {
                    o.error = failure.empty() ? "interval never ran"
                                              : failure;
                }
                o.components = std::move(hooks[k].components);
                out.runs.push_back(std::move(o));
            }
        }
        out.wallS = now() - t0 - hookS;
        out.cpuS = cpuNow() - c0 - hookCpuS;
        if (log) {
            out.spans = log->totalsSince(from);
            double interval = 0;
            for (const RunOutcome &o : out.runs)
                interval += o.ms / 1e3;
            out.spans["driver.sample.interval"] = interval;
        }
        return out;
    }

    std::map<std::string, double>
    snapshotProbe(SpanLog &log) override
    {
        constexpr int reps = 5;
        std::vector<double> writeS, restoreS;
        double bytes = 0;
        const std::string tmp = stateRoot + "/probe.snap";
        for (int rep = 0; rep < reps; ++rep) {
            double w = 0, r = 0;
            bytes = 0;
            for (std::size_t g = 0; g < gens.size(); ++g) {
                System sys(baseConfig(g));
                double t = now();
                SpanLog::Id s = log.open("snapshot.read", SpanLog::none);
                SnapshotReader sr = SnapshotReader::fromFile(warmPaths[g]);
                log.close(s);
                s = log.open("snapshot.restore", SpanLog::none);
                sys.restoreSnapshot(sr);
                log.close(s);
                r += now() - t;

                t = now();
                SnapshotWriter sw;
                sw.configHash = sr.configHash();
                sw.tick = sr.tick();
                sw.phaseCursor = sr.phaseCursor();
                sw.workload = sr.workload();
                s = log.open("snapshot.save", SpanLog::none);
                sys.saveSnapshot(sw);
                log.close(s);
                s = log.open("snapshot.file_write", SpanLog::none);
                sw.writeFile(tmp);
                log.close(s);
                w += now() - t;
                bytes += double(fs::file_size(tmp));
            }
            writeS.push_back(w);
            restoreS.push_back(r);
        }
        fs::remove(tmp);
        return {{"snapshot.write_ms", median(writeS) * 1e3},
                {"snapshot.restore_ms", median(restoreS) * 1e3},
                {"snapshot.bytes", bytes}};
    }

  private:
    struct Generator
    {
        std::string label;
        std::string maker; //!< synthetic workload name
        /** SynthMix read-only / read-write shares (others ignore them). */
        unsigned roPct = 40, rwPct = 30;
        /**
         * 4x SynthMix's rw slices and private pools, on a machine with
         * 4 KB L1s and 8 KB LLC banks: dirty lines overflow both levels
         * and are evicted to the backend (its write path, and write
         * pauses under sttmram).  Each bank is one 128-way set, so no
         * set fills with registered lines (the LLC model panics when
         * one does).
         */
        bool spill = false;
    };

    /** The write-heavy synthspace point plus two re-staging kernels. */
    const std::vector<Generator> gens = {
        {"SynthMix-rw70", "SynthMix", 15, 70, true},
        {"AttnScatter", "AttnScatter"},
        {"Stencil2D", "Stencil2D"},
    };
    const std::vector<MemOrg> orgs = {MemOrg::Cache, MemOrg::ScratchGD,
                                      MemOrg::Stash};
    static constexpr const char *deltaList =
        "identity,org:ScratchGD,org:Stash,backend:sttmram,"
        "backend:scmcache";

    std::string
    stateDir(std::size_t g) const
    {
        return stateRoot + "/" + gens[g].label;
    }

    std::function<Workload(MemOrg)>
    maker(std::size_t g)
    {
        return [this, g](MemOrg org) { return inputs.at({g, org}); };
    }

    SampleRequest
    request(std::size_t g)
    {
        SampleRequest req;
        req.workload = gens[g].label;
        req.org = MemOrg::Cache;
        req.scale = scale;
        req.config = baseConfig(g);
        const auto input = maker(g);
        req.make = [input](const WorkloadParams &p) {
            return input(p.org);
        };
        req.deltas = deltas;
        req.stateDir = stateDir(g);
        req.threads = 1;
        req.shardsPerRun = 1;
        req.maxAttempts = 1;
        return req;
    }

    /** The machine @p g's warm stage ran, resolved as runSample does. */
    SystemConfig
    baseConfig(std::size_t g) const
    {
        RunSpec base;
        base.org = MemOrg::Cache;
        base.config = SystemConfig::applicationDefault();
        if (gens[g].spill) {
            base.config->l1Bytes = 4 * 1024;
            base.config->llcBankBytes = 8 * 1024;
            base.config->llcAssoc = 128;
        }
        return resolveRunConfig(base);
    }

    Scale scale;
    std::uint64_t seed;
    std::string stateRoot;
    std::vector<SampleDelta> deltas;
    std::map<std::pair<std::size_t, MemOrg>, Workload> inputs;
    std::vector<std::string> warmPaths;
};

// ---------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------

struct WorkloadDef
{
    const char *name;
    /** Quick-scale pass and set-up times on a 4-thread x86 host
     *  (RelWithDebInfo); they set how many passes fill --seconds and
     *  how many set-ups fill a fixed share of it. */
    double nominalPassS;
    double nominalSetupS;
    /** Factory names the grid needs (checked before any run). */
    std::vector<std::string> factoryNames;
    bool seeded;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"micro-1cu", 4.4, 0.012,
         {"Implicit", "Pollution", "On-demand", "Reuse"}, false},
        {"apps-15cu", 2.9, 0.35,
         {"LUD", "SURF", "BP", "NW", "PF", "SGEMM", "STENCIL"}, false},
        {"synth-fanout", 0.5, 0.115,
         {"SynthMix", "AttnScatter", "Stencil2D"}, true},
    };
    return defs;
}

std::unique_ptr<Workbench>
makeWorkbench(const WorkloadDef &def, Scale scale, std::uint64_t seed,
              const std::string &state_root)
{
    const std::string name = def.name;
    if (name == "micro-1cu") {
        PaperRef ref;
        ref.stashOrg = MemOrg::Stash;
        // Figure 5, Stash time normalized to Scratch (EXPERIMENTS.md).
        ref.perWorkload = {{"Implicit", 0.85},
                           {"Pollution", 0.69},
                           {"On-demand", 0.74},
                           {"Reuse", 0.65}};
        return std::make_unique<GridBench>(
            def.factoryNames,
            std::vector<MemOrg>{MemOrg::Scratch, MemOrg::ScratchGD,
                                MemOrg::Cache, MemOrg::Stash},
            scale, ref);
    }
    if (name == "apps-15cu") {
        PaperRef ref;
        ref.stashOrg = MemOrg::StashG;
        // Figure 6 average, StashG time normalized to Scratch.
        ref.average = 0.90;
        return std::make_unique<GridBench>(
            def.factoryNames,
            std::vector<MemOrg>{MemOrg::Scratch, MemOrg::ScratchG,
                                MemOrg::Cache, MemOrg::Stash,
                                MemOrg::StashG},
            scale, ref);
    }
    return std::make_unique<FanoutBench>(scale, seed, state_root);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** One set-up's host time, and the untraced pass it ran in. */
struct SetupTime
{
    double cpuS;
    double wallS;
    std::size_t pass;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value;
    std::string note; //!< printed beside the value (bases, counts)
};

/** Checks every run against the first pass's digest at its index. */
void
checkDigests(std::vector<PassOutcome> &passes,
             const std::vector<std::uint64_t> &ref)
{
    for (PassOutcome &p : passes) {
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            RunOutcome &o = p.runs[i];
            if (o.ok && i < ref.size() && o.digest != ref[i]) {
                o.ok = false;
                o.error = "simulated-output digest " + hex(o.digest) +
                          " differs from " + hex(ref[i]);
            }
        }
    }
}

/** Work counted over one pass, from RunResult. */
struct PassWork
{
    double instructions = 0; //!< GPU instructions + CPU memory ops
    double gpuCycles = 0;
    double gpuInstructions = 0;
    double idleCycles = 0;
    double cuCycles = 0; //!< gpuCycles x CUs
    double events = 0;
    double simHostS = 0;
    double peakLive = 0;
    double wheel = 0, far = 0;
};

PassWork
workOf(const PassOutcome &p)
{
    PassWork w;
    for (const RunOutcome &o : p.runs) {
        const RunResult &r = o.result;
        w.gpuInstructions += double(r.stats.gpu.instructions);
        w.instructions += double(r.stats.gpu.instructions +
                                 r.stats.cpu.loads + r.stats.cpu.stores);
        w.gpuCycles += double(r.gpuCycles);
        w.idleCycles += double(r.stats.gpu.idleCycles);
        w.cuCycles += double(r.gpuCycles) * double(r.stats.numGpuCus);
        w.events += double(r.perf.events);
        w.simHostS += r.perf.hostSeconds;
        w.peakLive =
            std::max(w.peakLive, double(r.perf.shape.peakLiveEvents));
        w.wheel += double(r.perf.shape.wheelInserts);
        w.far += double(r.perf.shape.farInserts);
    }
    return w;
}

double
valueOr(const std::map<std::string, double> &m, const char *key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * referenceCpuS() at the host speed the benchmark was tuned at; host
 * times on the "ref" clock are CPU times scaled by this over the
 * reference time measured in the same pass.
 */
constexpr double referenceNominalS = 5.0e-3;

/** Which clock a host-time metric reads. */
enum class HostClock
{
    Ref,  //!< CPU time at the reference host speed (end-to-end)
    Wall, //!< wall time (printed beside them)
};

/**
 * The host-time metrics of the untraced passes on @p clock.
 * @p setups holds each set-up's CPU and wall seconds and the pass it
 * ran in.
 */
std::vector<Metric>
timingMetrics(const std::vector<PassOutcome> &passes,
              const std::vector<SetupTime> &setups, HostClock clock)
{
    const auto scale = [&](const PassOutcome &p) {
        return clock == HostClock::Ref ? referenceNominalS / p.refS : 1.0;
    };
    std::vector<double> passS, ips, runMs, setupS;
    for (const PassOutcome &p : passes) {
        const double s = (clock == HostClock::Ref ? p.cpuS : p.wallS) *
                         scale(p);
        passS.push_back(s);
        ips.push_back(workOf(p).instructions / s);
        for (const RunOutcome &o : p.runs)
            runMs.push_back((clock == HostClock::Ref ? o.cpuMs : o.ms) *
                            scale(p));
    }
    for (const SetupTime &t : setups)
        setupS.push_back((clock == HostClock::Ref ? t.cpuS : t.wallS) *
                         scale(passes[t.pass]));
    std::sort(runMs.begin(), runMs.end());
    // The highest percentile with at least ten samples beyond it.
    const std::size_t n = runMs.size();
    const std::size_t tailIdx = n > 10 ? n - 11 : n - 1;
    const double tailPct = 100.0 * double(tailIdx + 1) / double(n);
    const char *const names[2][5] = {
        {"pass_ref_s", "sim_instr_per_ref_s", "run_ref_ms_p50",
         "run_ref_ms_tail", "setup_s"},
        {"wall_s", "sim_instr_per_s", "run_ms_p50", "run_ms_tail",
         "setup_wall_s"},
    };
    const char *const *name = names[int(clock)];
    const std::string what = clock == HostClock::Ref
                                 ? "host CPU time at reference speed"
                                 : "host wall time";
    return {
        {name[0], "s", median(passS),
         what + " of a pass, median of " + std::to_string(passes.size()) +
             " passes"},
        {name[1], "1/s", median(ips),
         "GPU instructions + CPU memory ops per second of " + what},
        {name[2], "ms", median(runMs), std::to_string(n) + " runs"},
        {name[3], "ms", runMs[tailIdx],
         "p" + fmt(tailPct) + " of " + std::to_string(n) + " runs, " +
             std::to_string(n - 1 - tailIdx) + " beyond"},
        {name[4], "s", median(setupS),
         what + ", median of " + std::to_string(setups.size()) +
             " set-ups"},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<PassOutcome> &passes,
                const std::vector<SetupTime> &setups)
{
    std::vector<Metric> m = timingMetrics(passes, setups, HostClock::Ref);
    m.push_back({"peak_rss_mb", "MB", peakRssMb(),
                 "process peak resident set"});
    m.push_back({"sim_cycles", "cycles", workOf(passes.front()).gpuCycles,
                 "GPU cycles summed over a pass"});
    return m;
}

std::vector<Metric>
perLayerMetrics(const std::vector<PassOutcome> &traced,
                const std::vector<PassOutcome> &untraced,
                const std::map<std::string, double> &setupSpans,
                const std::map<std::string, double> &snapshot,
                const std::vector<ProbeResult> &probes)
{
    const auto spanMs = [&traced](const char *name) {
        std::vector<double> v;
        for (const PassOutcome &p : traced)
            v.push_back(valueOr(p.spans, name) * 1e3);
        return median(v);
    };
    const PassOutcome &last = traced.back();
    std::map<std::string, double> c;
    for (const RunOutcome &o : last.runs) {
        for (const auto &[k, v] : o.components)
            c[k] += v;
    }
    const PassWork w = workOf(last);
    std::vector<double> nsPerEvent;
    for (const PassOutcome &p : traced)
        nsPerEvent.push_back(1e9 * ratio(workOf(p).simHostS,
                                         workOf(p).events));

    const double l1Hits = c["l1.loadHits"] + c["l1.storeHits"];
    const double l1Acc = l1Hits + c["l1.loadMisses"] + c["l1.storeMisses"];
    const double stHits = c["stash.loadHits"] + c["stash.storeHits"];
    const double stAcc =
        stHits + c["stash.loadMisses"] + c["stash.storeMisses"];
    const double flits = c["noc.flitHops.read"] + c["noc.flitHops.write"] +
                         c["noc.flitHops.writeback"];
    const double dcache = c["memback.dcacheHits"] + c["memback.dcacheMisses"];

    const double runMs = spanMs("driver.run");
    const double phaseMs = spanMs("driver.phase.gpu") +
                           spanMs("driver.phase.cpu") +
                           spanMs("driver.phase.flush");
    std::vector<double> tw, uw;
    for (const PassOutcome &p : traced)
        tw.push_back(p.wallS);
    for (const PassOutcome &p : untraced)
        uw.push_back(p.wallS);
    const double overhead = median(tw) - median(uw);

    const std::string perPass = "per pass, summed over its runs";
    std::vector<Metric> m = {
        {"sim.events", "count", w.events, "per pass"},
        {"sim.ns_per_event", "ns", median(nsPerEvent),
         "System::run host time / sim.events"},
        {"sim.peak_live_events", "count", w.peakLive, "max over runs"},
        {"sim.far_insert_frac", "ratio", ratio(w.far, w.wheel + w.far),
         "base: " + fmt(w.wheel + w.far) + " queue inserts"},
        {"driver.build_ms", "ms", spanMs("driver.build"),
         "System constructor, " + perPass},
        {"driver.run_ms", "ms", runMs, "System::run, " + perPass},
        {"driver.phase.gpu_ms", "ms", spanMs("driver.phase.gpu"), perPass},
        {"driver.phase.cpu_ms", "ms", spanMs("driver.phase.cpu"), perPass},
        {"driver.phase.flush_ms", "ms", spanMs("driver.phase.flush"),
         perPass},
        {"driver.run_self_ms", "ms", runMs - phaseMs,
         "driver.run_ms minus its phase spans"},
        {"driver.sample.interval_ms", "ms",
         spanMs("driver.sample.interval"),
         "sampled intervals, " + perPass + " (synth-fanout only)"},
        {"workloads.make_ms", "ms",
         valueOr(setupSpans, "workloads.make") * 1e3,
         "input generation in the last set-up"},
        {"gpu.instructions", "count", w.gpuInstructions, "per pass"},
        {"gpu.ipc", "ratio", ratio(w.gpuInstructions, w.gpuCycles),
         "base: " + fmt(w.gpuCycles) + " GPU cycles"},
        {"gpu.idle_frac", "ratio", ratio(w.idleCycles, w.cuCycles),
         "base: " + fmt(w.cuCycles) + " CU cycles"},
        {"l1.accesses", "count", l1Acc, "all L1s, per pass"},
        {"l1.hit_ratio", "ratio", ratio(l1Hits, l1Acc),
         "base: l1.accesses = " + fmt(l1Acc)},
        {"l1.miss_words", "count", c["l1.missWords"], "per pass"},
        {"stash.accesses", "count", stAcc, "per pass"},
        {"stash.hit_ratio", "ratio", ratio(stHits, stAcc),
         "base: stash.accesses = " + fmt(stAcc)},
        {"stash.translations", "count", c["stash.translations"],
         "per pass"},
        {"stash.vpmap_per_access", "ratio",
         ratio(c["stash.vpMapAccesses"], stAcc),
         "base: stash.accesses = " + fmt(stAcc)},
        {"llc.accesses", "count", c["llc.accesses"], "per pass"},
        {"llc.registrations", "count", c["llc.registrations"], "per pass"},
        {"llc.remote_forwards", "count", c["llc.remoteForwards"],
         "per pass"},
        {"llc.fills", "count", c["llc.fills"], "per pass"},
        {"memback.reads", "count", c["memback.reads"], "per pass"},
        {"memback.writes", "count", c["memback.writes"], "per pass"},
        {"memback.write_pauses", "count", c["memback.writePauses"],
         "per pass"},
        {"memback.read_stall_ticks", "ticks", c["memback.readStallTicks"],
         "per pass"},
        {"memback.dcache_hit_ratio", "ratio",
         ratio(c["memback.dcacheHits"], dcache),
         "base: " + fmt(dcache) + " DRAM-cache lookups"},
        {"noc.packets", "count", c["noc.packets"], "per pass"},
        {"noc.flit_hops.read", "count", c["noc.flitHops.read"],
         "per pass"},
        {"noc.flit_hops.write", "count", c["noc.flitHops.write"],
         "per pass"},
        {"noc.flit_hops.writeback", "count", c["noc.flitHops.writeback"],
         "per pass"},
        {"noc.hops_per_packet", "ratio", ratio(flits, c["noc.packets"]),
         "flit-hops per packet; base: noc.packets = " +
             fmt(c["noc.packets"])},
        {"dma.transfers", "count", c["dma.transfers"], "per pass"},
        {"scratch.accesses", "count",
         c["scratch.reads"] + c["scratch.writes"], "per pass"},
        {"snapshot.write_ms", "ms", valueOr(snapshot, "snapshot.write_ms"),
         "saveSnapshot + file write, all boundary snapshots"},
        {"snapshot.bytes", "bytes", valueOr(snapshot, "snapshot.bytes"),
         "all boundary snapshots"},
        {"snapshot.restore_ms", "ms",
         valueOr(snapshot, "snapshot.restore_ms"),
         "file read + restoreSnapshot, all boundary snapshots"},
        {"report.stats_ms", "ms", spanMs("report.stats"),
         "statsRegistry().values(), " + perPass},
        {"trace.overhead_s", "s", overhead,
         "traced minus untraced wall_s; base: untraced wall_s = " +
             fmt(median(uw))},
    };
    for (const ProbeResult &p : probes)
        m.push_back({p.name, p.unit, p.value, p.what});
    return m;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    int trace = -1;
    Scale scale = Scale::Quick;
    std::string out = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale quick|smoke] [--out DIR]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
        v.size() > 18)
        usage(flag + " wants a whole number, got '" + v + "'");
    return std::stoull(v);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, v);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = double(parseUnsigned(flag, v));
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--scale") {
            if (v == "quick")
                a.scale = Scale::Quick;
            else if (v == "smoke")
                a.scale = Scale::Smoke;
            else
                usage("--scale wants quick or smoke");
        } else if (flag == "--out") {
            a.out = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || !haveSeed || a.seconds <= 0 || a.trace < 0)
        usage("--workload, --seed, --seconds (> 0) and --trace are "
              "required");
    return a;
}

/**
 * Everything that can fail without simulating is checked here, before
 * any set-up: the workload and every factory name it needs resolve,
 * and the output directory is writable.
 */
const WorkloadDef &
preflight(const Args &a)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs()) {
        if (a.workload == d.name)
            def = &d;
    }
    if (!def) {
        std::string known;
        for (const WorkloadDef &d : workloadDefs())
            known += std::string(known.empty() ? "" : ", ") + d.name;
        usage("unknown workload '" + a.workload + "' (known: " + known +
              ")");
    }
    for (const std::string &n : def->factoryNames) {
        if (!WorkloadFactory::instance().find(n))
            usage("workload factory has no '" + n + "'");
    }
    std::error_code ec;
    fs::create_directories(a.out, ec);
    const std::string probe = a.out + "/.writable";
    {
        std::ofstream f(probe);
        f << "ok\n";
        if (!f.good())
            usage("output directory '" + a.out + "' is not writable");
    }
    fs::remove(probe, ec);
    return *def;
}

/** Removes a directory tree when the run ends, however it ends. */
struct ScopedDir
{
    std::string path;
    ~ScopedDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

int
run(const Args &a, const WorkloadDef &def)
{
    const ScopedDir state{a.out + "/state-" + std::to_string(getpid())};
    std::unique_ptr<Workbench> bench =
        makeWorkbench(def, a.scale, a.seed, state.path);
    SpanLog log;
    SpanLog *traceLog = a.trace ? &log : nullptr;

    std::cout << "perfbench workload=" << def.name
              << " scale=" << workloads::scaleName(a.scale)
              << " trace=" << a.trace << " seed=" << a.seed
              << (def.seeded ? " (SynthConfig::seed)"
                             : " (unused: fixed paper inputs, no seed)")
              << "\n";

    // Pass and set-up counts depend on --seconds alone, so every run
    // takes the same number of samples (and the tail percentile reads
    // the same rank).  The set-ups, a tenth of the passes' time, are
    // spread evenly over the runs of the untraced passes: the host's
    // speed drifts within a second, and set-ups timed in a few bursts
    // would catch only a few of its phases.
    const double budget = a.seconds / def.nominalPassS;
    const std::size_t passes = std::size_t(
        a.trace ? std::max(2L, std::lround(budget / 2))
                : std::max(3L, std::lround(budget)));
    const std::size_t setupCount = std::size_t(
        std::max(1L, std::lround(a.seconds / 10 / def.nominalSetupS)));
    std::vector<SetupTime> setups;
    std::map<std::string, double> setupSpans;
    std::vector<PassOutcome> untraced, traced;
    for (std::size_t i = 0; i < passes; ++i) {
        // Before slot k of n, time the reference task, then catch up
        // to setupCount x (slots begun) / (all slots); the first slot
        // always sets up.
        std::vector<double> refs;
        const SlotHook setUpDue = [&](std::size_t k, std::size_t n) {
            refs.push_back(referenceCpuS());
            while (setups.size() * n * passes <
                   setupCount * (i * n + k + 1)) {
                const SpanLog::Id from = log.size();
                const double t0 = now(), c0 = cpuNow();
                bench->setup(traceLog);
                setups.push_back({cpuNow() - c0, now() - t0, i});
                setupSpans = log.totalsSince(from);
            }
        };
        untraced.push_back(bench->pass(nullptr, setUpDue));
        untraced.back().refS = median(refs);
        if (a.trace)
            traced.push_back(
                bench->pass(&log, [](std::size_t, std::size_t) {}));
    }

    // Digests: every run must match the first pass's run at its index.
    std::vector<std::uint64_t> ref;
    for (const RunOutcome &o : untraced.front().runs)
        ref.push_back(o.digest);
    checkDigests(untraced, ref);
    checkDigests(traced, ref);
    std::uint64_t wlDigest = 0xcbf29ce484222325ull;
    for (std::uint64_t d : ref)
        wlDigest = (wlDigest ^ d) * 0x100000001b3ull;

    // Exact counts must repeat across traced passes.
    for (std::size_t p = 1; p < traced.size(); ++p) {
        for (std::size_t i = 0; i < traced[p].runs.size(); ++i) {
            RunOutcome &o = traced[p].runs[i];
            if (o.ok && o.components != traced[0].runs[i].components) {
                o.ok = false;
                o.error = "component counters differ between passes";
            }
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&untraced, &traced}) {
        for (const PassOutcome &p : *set) {
            for (const RunOutcome &o : p.runs) {
                ++attempted;
                if (!o.ok) {
                    ++failed;
                    if (failed <= 5) {
                        std::cout << "FAILED " << o.label << ": "
                                  << o.error << "\n";
                    }
                }
            }
        }
    }

    std::vector<Metric> metrics;
    std::vector<Metric> extra; // printed, not in the result line
    if (!a.trace) {
        metrics = endToEndMetrics(untraced, setups);
        extra = timingMetrics(untraced, setups, HostClock::Wall);
    } else {
        std::map<std::string, double> snapshot = bench->snapshotProbe(log);
        metrics = perLayerMetrics(traced, untraced, setupSpans, snapshot,
                                  runProbes());
    }
    extra.push_back({"fail_frac", "ratio",
                     ratio(double(failed), double(attempted)),
                     std::to_string(failed) + " of " +
                         std::to_string(attempted) + " runs"});
    if (const auto err = bench->paperTimeErr(untraced.front())) {
        extra.push_back({"paper_time_err", "ratio", *err,
                         "mean |Stash/Scratch time - paper|"});
    } else {
        extra.push_back({"paper_time_err", "ratio", std::nan(""),
                         "n/a: no reference, the model is unvalidated "
                         "on this workload"});
    }

    std::cout << "runs/pass=" << untraced.front().runs.size()
              << " passes=" << untraced.size() << "+" << traced.size()
              << " traced\n";
    std::cout << "digest " << def.name << " " << hex(wlDigest) << "\n";
    for (const auto *list : {&metrics, &extra}) {
        for (const Metric &m : *list) {
            std::printf("  %-28s %14s %-6s  %s\n", m.name.c_str(),
                        fmt(m.value).c_str(), m.unit.c_str(),
                        m.note.c_str());
        }
    }

    const std::string stem = a.out + "/" + def.name + "-seed" +
                             std::to_string(a.seed) + "-trace" +
                             std::to_string(a.trace);
    {
        report::JsonValue doc = report::JsonValue::object();
        doc["workload"] = def.name;
        doc["seed"] = def.seeded ? report::JsonValue(double(a.seed))
                                 : report::JsonValue();
        doc["scale"] = workloads::scaleName(a.scale);
        doc["digest"] = hex(wlDigest);
        report::JsonValue walls = report::JsonValue::array();
        report::JsonValue cpus = report::JsonValue::array();
        report::JsonValue refs = report::JsonValue::array();
        for (const auto *set : {&untraced, &traced}) {
            for (const PassOutcome &p : *set) {
                walls.push(p.wallS);
                cpus.push(p.cpuS);
                refs.push(p.refS);
            }
        }
        doc["passWallS"] = std::move(walls);
        doc["passCpuS"] = std::move(cpus);
        doc["passRefS"] = std::move(refs);
        report::JsonValue runMs = report::JsonValue::array();
        report::JsonValue runCpuMs = report::JsonValue::array();
        for (const PassOutcome &p : untraced) {
            report::JsonValue row = report::JsonValue::array();
            report::JsonValue cpuRow = report::JsonValue::array();
            for (const RunOutcome &o : p.runs) {
                row.push(o.ms);
                cpuRow.push(o.cpuMs);
            }
            runMs.push(std::move(row));
            runCpuMs.push(std::move(cpuRow));
        }
        doc["runMs"] = std::move(runMs);
        doc["runCpuMs"] = std::move(runCpuMs);
        report::JsonValue setupArr = report::JsonValue::array();
        report::JsonValue setupWallArr = report::JsonValue::array();
        report::JsonValue setupPassArr = report::JsonValue::array();
        for (const SetupTime &t : setups) {
            setupArr.push(t.cpuS);
            setupWallArr.push(t.wallS);
            setupPassArr.push(double(t.pass));
        }
        doc["setupCpuS"] = std::move(setupArr);
        doc["setupWallS"] = std::move(setupWallArr);
        doc["setupPass"] = std::move(setupPassArr);
        doc["attempted"] = double(attempted);
        doc["failed"] = double(failed);
        report::JsonValue ms = report::JsonValue::object();
        for (const auto *list : {&metrics, &extra}) {
            for (const Metric &m : *list) {
                report::JsonValue e = report::JsonValue::object();
                e["value"] = m.value;
                e["unit"] = m.unit;
                e["note"] = m.note;
                ms[m.name] = std::move(e);
            }
        }
        doc["metrics"] = std::move(ms);
        std::ofstream f(stem + ".json");
        doc.write(f);
        f << "\n";
    }
    if (a.trace) {
        std::ofstream f(stem + "-spans.json");
        log.writeChrome(f);
    }

    std::ostringstream line;
    line << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": "
             << report::jsonNumberToString(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // glibc raises its mmap and trim thresholds the first time a large
    // mmapped block is freed.  Whether a System's big arrays (the LLC
    // banks' lines) are then page-faulted in afresh on each build
    // depends on the heap's history, and it put synth-fanout's
    // run_ms_p50 at 22 ms in some processes and 33 ms in others.
    // Fixed at the values a long sweep converges to, every process
    // starts there.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    const perfbench::WorkloadDef &def = perfbench::preflight(args);
    try {
        return perfbench::run(args, def);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
