#include "workloads/profile.hh"

#include <cmath>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/units.hh"

namespace spec17 {
namespace workloads {

std::string
suiteKindName(SuiteKind kind)
{
    switch (kind) {
      case SuiteKind::RateInt: return "rate int";
      case SuiteKind::RateFp: return "rate fp";
      case SuiteKind::SpeedInt: return "speed int";
      case SuiteKind::SpeedFp: return "speed fp";
    }
    SPEC17_PANIC("unknown SuiteKind");
}

bool
isIntSuite(SuiteKind kind)
{
    return kind == SuiteKind::RateInt || kind == SuiteKind::SpeedInt;
}

bool
isSpeedSuite(SuiteKind kind)
{
    return kind == SuiteKind::SpeedInt || kind == SuiteKind::SpeedFp;
}

std::string
inputSizeName(InputSize size)
{
    switch (size) {
      case InputSize::Test: return "test";
      case InputSize::Train: return "train";
      case InputSize::Ref: return "ref";
    }
    SPEC17_PANIC("unknown InputSize");
}

double
WorkloadProfile::instrBillions(InputSize size) const
{
    switch (size) {
      case InputSize::Test: return refInstrBillions * testScale;
      case InputSize::Train: return refInstrBillions * trainScale;
      case InputSize::Ref: return refInstrBillions;
    }
    SPEC17_PANIC("unknown InputSize");
}

namespace {

/** Footprint shrink factor of the smaller input sizes vs ref. */
double
footprintScale(InputSize size)
{
    switch (size) {
      case InputSize::Test: return 0.3;
      case InputSize::Train: return 0.6;
      case InputSize::Ref: return 1.0;
    }
    SPEC17_PANIC("unknown InputSize");
}

} // namespace

double
WorkloadProfile::rssMiB(InputSize size) const
{
    return rssRefMiB * footprintScale(size);
}

double
WorkloadProfile::vszMiB(InputSize size) const
{
    return vszRefMiB * footprintScale(size);
}

bool
WorkloadProfile::isErrored(InputSize size, unsigned input_index) const
{
    for (const auto &[errored_size, errored_index] : erroredInputs) {
        if (errored_size == size && errored_index == input_index)
            return true;
    }
    return false;
}

namespace {

std::string
fractionError(double value, const char *what, const std::string &name)
{
    if (std::isfinite(value) && value >= 0.0 && value <= 1.0)
        return "";
    std::ostringstream os;
    os << name << ": " << what << " must be in [0, 1], got " << value;
    return os.str();
}

} // namespace

std::string
WorkloadProfile::validationError() const
{
    if (name.empty())
        return "profile without a name";
    if (benchmarkId <= 0)
        return name + ": benchmark id missing";
    const std::pair<double, const char *> fractions[] = {
        {loadFrac, "loadFrac"},
        {storeFrac, "storeFrac"},
        {branchFrac, "branchFrac"},
        {fpFrac, "fpFrac"},
        {computeDepFrac, "computeDepFrac"},
        {memory.l1MissRate, "l1MissRate"},
        {memory.l2MissRate, "l2MissRate"},
        {memory.l3MissRate, "l3MissRate"},
        {memory.chaseFrac, "chaseFrac"},
        {branches.condFrac, "condFrac"},
        {branches.mispredictRate, "mispredictRate"},
        {branches.depOnLoadFrac, "depOnLoadFrac"},
        {threadPrivateFrac, "threadPrivateFrac"},
    };
    for (const auto &[value, what] : fractions) {
        const std::string error = fractionError(value, what, name);
        if (!error.empty())
            return error;
    }
    if (!(loadFrac + storeFrac + branchFrac < 1.0))
        return name + ": mix leaves no room for compute";
    const double kinds = branches.condFrac + branches.directJumpFrac
        + branches.nearCallFrac + branches.indirectJumpFrac
        + branches.nearReturnFrac;
    if (!(kinds <= 1.0 + 1e-9))
        return name + ": branch kinds exceed 100%";
    if (!(std::isfinite(refInstrBillions) && refInstrBillions > 0.0))
        return name + ": instruction count must be positive";
    if (!(std::isfinite(rssRefMiB) && std::isfinite(vszRefMiB)
          && rssRefMiB > 0.0 && vszRefMiB >= rssRefMiB))
        return name + ": need 0 < RSS <= VSZ";
    if (!(std::isfinite(testScale) && std::isfinite(trainScale)
          && testScale > 0.0 && trainScale > 0.0))
        return name + ": input scales must be positive and finite";
    // Journals hold finite doubles only, so an overflowing paper-scale
    // count fails here, before its window is simulated.
    for (const InputSize size : kAllInputSizes) {
        if (!std::isfinite(instrBillions(size) * kBillion))
            return name + ": " + inputSizeName(size)
                + " instruction count is not finite";
    }
    if (numThreads < 1)
        return name + ": needs at least one thread";
    for (unsigned n : numInputs) {
        if (n < 1)
            return name + ": every size needs >= 1 input";
    }
    if (codeFootprintKiB < 4)
        return name + ": code too small";
    return "";
}

void
WorkloadProfile::validate() const
{
    const std::string error = validationError();
    SPEC17_ASSERT(error.empty(), error);
}

std::string
AppInputPair::displayName() const
{
    SPEC17_ASSERT(profile != nullptr, "pair without profile");
    const unsigned inputs =
        profile->numInputs[static_cast<std::size_t>(size)];
    if (inputs <= 1)
        return profile->name;
    return profile->name + "-in" + std::to_string(inputIndex + 1);
}

std::vector<AppInputPair>
enumeratePairs(const std::vector<WorkloadProfile> &suite, InputSize size)
{
    std::vector<AppInputPair> pairs;
    for (const WorkloadProfile &profile : suite) {
        const unsigned inputs =
            profile.numInputs[static_cast<std::size_t>(size)];
        for (unsigned i = 0; i < inputs; ++i)
            pairs.push_back({&profile, size, i});
    }
    return pairs;
}

std::vector<AppInputPair>
enumeratePairs(const std::vector<WorkloadProfile> &suite, InputSize size,
               SuiteKind kind)
{
    std::vector<AppInputPair> pairs;
    for (const AppInputPair &pair : enumeratePairs(suite, size)) {
        if (pair.profile->suite == kind)
            pairs.push_back(pair);
    }
    return pairs;
}

const WorkloadProfile &
findProfile(const std::vector<WorkloadProfile> &suite,
            const std::string &name)
{
    for (const WorkloadProfile &profile : suite) {
        if (profile.name == name)
            return profile;
    }
    SPEC17_PANIC("no profile named '", name, "'");
}

} // namespace workloads
} // namespace spec17
