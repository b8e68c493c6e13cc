#include "corun/runner.hh"

#include <memory>
#include <sstream>

#include "sim/multicore.hh"
#include "suite/arena_store.hh"
#include "suite/runner.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/units.hh"
#include "workloads/builder.hh"

namespace spec17 {
namespace corun {

using counters::PerfEvent;
using workloads::WorkloadProfile;

double
CorunResult::throughput() const
{
    double sum = 0.0;
    for (const MemberResult &member : members) {
        if (member.cycles > 0.0)
            sum += member.soloCycles / member.cycles;
    }
    return sum;
}

double
CorunResult::worstSlowdown() const
{
    double worst = 0.0;
    for (const MemberResult &member : members)
        worst = std::max(worst, member.slowdown());
    return worst;
}

CorunRunner::CorunRunner(CorunOptions options)
    : options_(std::move(options))
{
    SPEC17_ASSERT(options_.sampleOps >= 1000,
                  "sample too small to be meaningful");
    SPEC17_ASSERT(options_.chunkOps >= 1, "chunk must be positive");
}

std::string
CorunRunner::configKey() const
{
    // Everything that affects result bytes, and nothing that does
    // not: jobs and shard identity partition work, so they stay out.
    // chunkOps is in -- it decides how finely contexts interleave on
    // the shared L3, which is contention semantics. Partition masks
    // are per-group, carried by each record's group name and the
    // campaign's group digest rather than here.
    static constexpr const char *kResultVersion = "spec17-corun-v1";
    std::ostringstream os;
    os << kResultVersion << "|" << options_.system.describe()
       << "|sample=" << options_.sampleOps
       << "|warmup=" << options_.warmupOps
       << "|chunk=" << options_.chunkOps << "|seed=" << options_.seed
       << "|size=" << workloads::inputSizeName(options_.size);
    return os.str();
}

namespace {

/**
 * Lowers one member to generator parameters. The trace seed depends
 * only on (root seed, profile, size) -- never on the group or the
 * context -- so a member replays the identical instruction stream
 * solo and in every group, which is what makes slowdown = group
 * cycles / solo cycles a like-for-like ratio. Context identity only
 * shifts the address space: members model separate processes, so
 * each context's regions land in a disjoint GiB-aligned range
 * (set-index-preserving, hence private-cache-neutral).
 */
trace::SyntheticTraceParams
memberParams(const CorunOptions &options, const WorkloadProfile &profile,
             unsigned context)
{
    workloads::AppInputPair pair;
    pair.profile = &profile;
    pair.size = options.size;
    pair.inputIndex = 0;
    workloads::BuildOptions build;
    build.sampleOps = options.sampleOps + options.warmupOps;
    build.seed = deriveSeed(options.seed, "corun-trace");
    trace::SyntheticTraceParams params =
        workloads::buildTraceParams(pair, build, 0);
    params.addressOffset = std::uint64_t(context) * 8 * kGiB;
    return params;
}

/**
 * The arena @p profile's member trace replays from (nullptr without a
 * store: live generation). One arena per app, captured at context 0:
 * the context changes only data addresses, so openTrace shifts this
 * capture to any other context's address space at replay. Always
 * acquired: the app's solo baseline and every group it joins, at
 * every context, read it.
 */
std::shared_ptr<const trace::TraceArena>
memberArena(const CorunOptions &options, const WorkloadProfile &profile)
{
    return options.arenaStore != nullptr
        ? options.arenaStore->acquire(memberParams(options, profile, 0))
        : nullptr;
}

} // namespace

double
CorunRunner::soloCycles(const WorkloadProfile &profile) const
{
    // Computed outside the memo's lock; a racing worker produces the
    // identical value and first-write-wins resolves the tie.
    return solo_.getOrCompute(profile.name, [&] {
        // The baseline is the same machine with every other context
        // idle: a 1-context multicore run, so chunked stepping, warmup
        // semantics and the measured window match the group runs
        // exactly.
        sim::MulticoreSimulator machine(
            options_.system, 1,
            deriveSeed(deriveSeed(options_.seed, "corun-solo"),
                       profile.name));
        const suite::PairTrace trace =
            suite::openTrace(memberParams(options_, profile, 0),
                             memberArena(options_, profile));
        suite::prefillSteadyState(machine.mutableCore(0),
                                  *trace.generator);
        const std::vector<sim::SimResult> parts = machine.runEach(
            {trace.source}, options_.chunkOps, options_.warmupOps);
        return parts.front().cycles;
    });
}

CorunResult
CorunRunner::runGroup(const CorunGroup &group) const
{
    const auto n = static_cast<unsigned>(group.members.size());
    SPEC17_ASSERT(n >= 1, "empty co-run group");

    CorunResult result;
    result.name = group.name();
    result.masks = group.masks;

    sim::MulticoreSimulator machine(
        options_.system, n,
        deriveSeed(deriveSeed(options_.seed, "corun-sim"),
                   result.name));
    if (!group.masks.empty()) {
        const std::string error = validateMasks(
            group.masks, options_.system.hierarchy.l3.assoc);
        SPEC17_ASSERT(error.empty(), "group ", result.name, ": ",
                      error);
        machine.setWayPartition(group.masks);
    }

    std::vector<std::shared_ptr<trace::TraceSource>> sources;
    sources.reserve(n);
    for (unsigned c = 0; c < n; ++c) {
        // The context's own params, so the prefill below reads this
        // context's region bases from trace.generator.
        const suite::PairTrace trace =
            suite::openTrace(memberParams(options_, *group.members[c], c),
                             memberArena(options_, *group.members[c]));
        suite::prefillSteadyState(machine.mutableCore(c),
                                  *trace.generator);
        sources.push_back(trace.source);
    }

    const std::vector<sim::SimResult> parts =
        machine.runEach(sources, options_.chunkOps, options_.warmupOps);

    const sim::SetAssocCache &l3 = machine.sharedL3();
    for (unsigned c = 0; c < n; ++c) {
        MemberResult member;
        member.name = group.members[c]->name;
        member.cycles = parts[c].cycles;
        member.soloCycles = soloCycles(*group.members[c]);
        member.instructions =
            parts[c].counters.get(PerfEvent::InstRetiredAny);
        const sim::CacheContextStats &stats = l3.contextStats(c);
        member.l3Hits = stats.hits;
        member.l3Misses = stats.misses;
        member.evictionsInflicted = stats.evictionsInflicted;
        member.evictionsSuffered = stats.evictionsSuffered;
        member.occupancyLines = l3.contextOccupancy(c);
        result.members.push_back(std::move(member));
    }
    return result;
}

} // namespace corun
} // namespace spec17
