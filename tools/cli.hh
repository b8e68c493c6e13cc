/**
 * @file
 * Implementation of the `spec17` command-line tool, factored out of
 * main() so it is unit-testable. Each command writes its report to a
 * stream and returns a process exit code.
 *
 * The subcommands are the entries of verbTable() and the flags those
 * of flagTable(); `spec17 --help` renders both.
 */

#ifndef SPEC17_TOOLS_CLI_HH_
#define SPEC17_TOOLS_CLI_HH_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace spec17 {
namespace cli {

/** Parsed command line: subcommand, positionals, --key=value flags. */
struct CommandLine
{
    std::string command;
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    /** Flag value or @p fallback. */
    std::string flag(const std::string &key,
                     const std::string &fallback = "") const;
    /** Strict unsigned flag value or @p fallback; malformed is fatal. */
    std::uint64_t flagUint(const std::string &key,
                           std::uint64_t fallback) const;
    bool hasFlag(const std::string &key) const;
};

/**
 * Parses argv (beyond argv[0]). Flags are "--key=value" or bare
 * "--key"; everything else is positional, with the first positional
 * being the subcommand.
 */
CommandLine parseCommandLine(int argc, const char *const *argv);

/** Runs the parsed command; returns the process exit code. */
int runCommand(const CommandLine &command, std::ostream &out,
               std::ostream &err);

/**
 * One accepted `--flag` of the CLI. The flag table is the single
 * source of truth for the accepted flags and their values: usage()
 * renders it and runCommand() validates parsed flags against it. The
 * placeholder is the value contract:
 *   ""       a switch, which takes no value;
 *   "N"      a strict decimal in [@ref min, 2^32 - 1];
 *   "a|b|c"  exactly one of the listed names;
 *   "K/N"    a shard, 1 <= K <= N;
 *   other    free text.
 */
struct FlagSpec
{
    const char *name;        //!< without the leading "--"
    const char *placeholder; //!< value contract, "" for switches
    const char *help;        //!< one-line description
    const char *group;       //!< usage section this flag renders under
    std::uint64_t min = 0;   //!< smallest accepted "N" value
};

/** Every flag the CLI accepts, in usage() rendering order. */
const std::vector<FlagSpec> &flagTable();

/**
 * One `spec17` subcommand. The verb table is the single source of
 * truth for dispatch, the usage() command list, the verbs named in
 * each flag group's header, and which flags each verb accepts.
 */
struct VerbSpec
{
    const char *name;
    const char *synopsis; //!< usage() text after the name, e.g. "<app>"
    const char *summary;  //!< one-line description
    int (*run)(const CommandLine &, std::ostream &out, std::ostream &err);
    std::string flags;      //!< space-separated flags the handler reads
    /** Missing-positional error text, or "". It also sets the
     *  arity: a verb with it takes one positional (any number when
     *  the synopsis ends in "...>"), a verb without it takes none. */
    const char *needs = "";
};

/** Every subcommand, in usage() order. */
const std::vector<VerbSpec> &verbTable();

/** Usage text: the rendered verb and flag tables. */
std::string usage();

} // namespace cli
} // namespace spec17

#endif // SPEC17_TOOLS_CLI_HH_
