#include "suite/failure.hh"

#include <limits>
#include <sstream>

#include "suite/journal.hh"
#include "util/logging.hh"

namespace spec17 {
namespace suite {

const char *
failureCategoryName(FailureCategory category)
{
    switch (category) {
      case FailureCategory::Exception: return "exception";
      case FailureCategory::Invariant: return "invariant";
      case FailureCategory::BadProfile: return "bad_profile";
      case FailureCategory::Deadline: return "deadline";
      case FailureCategory::Injected: return "injected";
    }
    SPEC17_PANIC("unknown FailureCategory");
}

std::optional<FailureCategory>
failureCategoryFromName(std::string_view name)
{
    for (auto category : {
             FailureCategory::Exception, FailureCategory::Invariant,
             FailureCategory::BadProfile, FailureCategory::Deadline,
             FailureCategory::Injected}) {
        if (name == failureCategoryName(category))
            return category;
    }
    return std::nullopt;
}

std::string
sanitizeFailureMessage(std::string message)
{
    for (char &c : message) {
        if (c == ',' || c == '|' || c == '@' || c == '\n' || c == '\r')
            c = '_';
    }
    return message;
}

std::string
serializeFailures(const std::vector<FailureRecord> &failures)
{
    if (failures.empty())
        return "-";
    std::ostringstream os;
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const FailureRecord &f = failures[i];
        if (i > 0)
            os << "|";
        os << failureCategoryName(f.category) << "@" << f.attempt << "@"
           << f.opsCompleted << "@" << sanitizeFailureMessage(f.message);
    }
    return os.str();
}

namespace {

/** Parses one 'category@attempt@ops@message' record. */
std::optional<FailureRecord>
parseOneFailure(const std::string &text)
{
    std::size_t pos = 0;
    std::string fields[3];
    for (auto &field : fields) {
        const std::size_t at = text.find('@', pos);
        if (at == std::string::npos)
            return std::nullopt;
        field = text.substr(pos, at - pos);
        pos = at + 1;
    }
    FailureRecord record;
    const auto category = failureCategoryFromName(fields[0]);
    if (!category)
        return std::nullopt;
    record.category = *category;
    const auto attempt =
        parseUnsigned(fields[1], std::numeric_limits<unsigned>::max());
    const auto ops = parseUnsigned(fields[2]);
    if (!attempt || !ops)
        return std::nullopt;
    record.attempt = static_cast<unsigned>(*attempt);
    record.opsCompleted = *ops;
    record.message = text.substr(pos);
    return record;
}

} // namespace

std::optional<std::vector<FailureRecord>>
parseFailures(const std::string &cell)
{
    std::vector<FailureRecord> failures;
    if (cell == "-")
        return failures;
    std::size_t pos = 0;
    while (pos <= cell.size()) {
        std::size_t bar = cell.find('|', pos);
        if (bar == std::string::npos)
            bar = cell.size();
        const auto record = parseOneFailure(cell.substr(pos, bar - pos));
        if (!record)
            return std::nullopt;
        failures.push_back(*record);
        pos = bar + 1;
        if (bar == cell.size())
            break;
    }
    return failures;
}

} // namespace suite
} // namespace spec17
