#include "telemetry/sink.hh"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace spec17 {
namespace telemetry {

namespace {

/** JSON string escape (quotes, backslashes, control characters). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
renderSeriesCsv(const TimeSeries &series, std::ostream &out)
{
    out.precision(17);
    out << "interval,end_ops";
    for (const std::string &column : series.columns)
        out << "," << column;
    out << "\n";
    for (std::size_t i = 0; i < series.numIntervals(); ++i) {
        out << i << "," << series.endOps[i];
        for (double value : series.rows[i])
            out << "," << value;
        out << "\n";
    }
}

void
renderSeriesJsonl(const TimeSeries &series, std::ostream &out)
{
    out.precision(17);
    for (std::size_t i = 0; i < series.numIntervals(); ++i) {
        out << "{\"interval\":" << i << ",\"end_ops\":"
            << series.endOps[i];
        for (std::size_t c = 0; c < series.columns.size(); ++c) {
            out << ",\"" << jsonEscape(series.columns[c])
                << "\":" << series.rows[i][c];
        }
        out << "}\n";
    }
}

void
MemorySink::write(const std::string &pair_name, const TimeSeries &series)
{
    std::lock_guard<std::mutex> lock(mutex_);
    series_[pair_name] = series;
}

const TimeSeries *
MemorySink::find(const std::string &pair_name) const
{
    const auto it = series_.find(pair_name);
    return it == series_.end() ? nullptr : &it->second;
}

FileSink::FileSink(std::string directory, Format format)
    : directory_(std::move(directory)), format_(format)
{
    SPEC17_ASSERT(!directory_.empty(),
                  "FileSink needs a target directory");
}

std::string
FileSink::pathFor(const std::string &pair_name) const
{
    return directory_ + "/" + pair_name
        + (format_ == Format::Csv ? ".telemetry.csv"
                                  : ".telemetry.jsonl");
}

void
FileSink::write(const std::string &pair_name, const TimeSeries &series)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    const std::string file = pathFor(pair_name);
    std::ostringstream rendered;
    if (format_ == Format::Csv)
        renderSeriesCsv(series, rendered);
    else
        renderSeriesJsonl(series, rendered);
    // Same commit discipline as the result journal: a crash mid-write
    // can never leave a torn series behind.
    std::string error;
    if (!writeFileAtomic(file, rendered.str(), error)) {
        if (!warned_)
            warn("cannot commit telemetry to ", file, ": ", error,
                 "; dropping series");
        warned_ = true;
    }
}

} // namespace telemetry
} // namespace spec17
